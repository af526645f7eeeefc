//! Inline operand lists for [`TimedOp`](crate::circuit::TimedOp).
//!
//! Almost every native op addresses one or two sites and one or two ions,
//! so [`Operands`] keeps up to two entries inline and spills to the heap
//! only for SIMD pulses with more members. Emitting, cloning and dropping
//! an op therefore allocates nothing on the common path.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A list of operands: at most two held inline, more on the heap. Derefs
/// to a slice.
#[derive(Clone)]
pub struct Operands<T: Copy>(Repr<T>);

#[derive(Clone)]
enum Repr<T: Copy> {
    /// `len ≤ 2` entries; slots past `len` repeat the first entry. (An
    /// empty list is an empty `Spilled`, which does not allocate.)
    Inline {
        len: u8,
        items: [T; 2],
    },
    Spilled(Box<[T]>),
}

impl<T: Copy> Operands<T> {
    /// The operands of `items`, in order.
    pub fn from_slice(items: &[T]) -> Self {
        Operands(match *items {
            [a] => Repr::Inline { len: 1, items: [a, a] },
            [a, b] => Repr::Inline { len: 2, items: [a, b] },
            _ => Repr::Spilled(items.into()),
        })
    }

    /// Appends `item`, spilling to the heap past two entries.
    pub fn push(&mut self, item: T) {
        if let Repr::Inline { len: len @ 1, items } = &mut self.0 {
            items[1] = item;
            *len = 2;
        } else {
            let mut all = Vec::with_capacity(self.len() + 1);
            all.extend_from_slice(self);
            all.push(item);
            *self = Operands::from_slice(&all);
        }
    }
}

impl<T: Copy> Deref for Operands<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..usize::from(*len)],
            Repr::Spilled(items) => items,
        }
    }
}

impl<T: Copy> DerefMut for Operands<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, items } => &mut items[..usize::from(*len)],
            Repr::Spilled(items) => items,
        }
    }
}

impl<T: Copy> Extend<T> for Operands<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, items: I) {
        for item in items {
            self.push(item);
        }
    }
}

impl<T: Copy> From<Vec<T>> for Operands<T> {
    fn from(items: Vec<T>) -> Self {
        Operands::from_slice(&items)
    }
}

impl<T: Copy, const N: usize> From<[T; N]> for Operands<T> {
    fn from(items: [T; N]) -> Self {
        Operands::from_slice(&items)
    }
}

impl<'a, T: Copy> IntoIterator for &'a Operands<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy + PartialEq> PartialEq for Operands<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for Operands<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_two_inline_and_spills_past_them() {
        let mut ops = Operands::from_slice(&[1u32]);
        assert_eq!(&*ops, &[1]);
        ops.push(2);
        assert!(matches!(ops.0, Repr::Inline { len: 2, .. }));
        ops.push(3);
        ops.push(4);
        assert!(matches!(ops.0, Repr::Spilled(_)));
        assert_eq!(&*ops, &[1, 2, 3, 4]);
        ops[3] = 9;
        assert_eq!(ops, Operands::from(vec![1, 2, 3, 9]));
        assert_eq!(format!("{ops:?}"), "[1, 2, 3, 9]");
        assert!(Operands::<u32>::from_slice(&[]).is_empty());
    }

    #[test]
    fn equality_ignores_the_representation() {
        let mut grown = Operands::from_slice(&[5u32]);
        grown.push(6);
        assert_eq!(grown, Operands::from([5, 6]));
        assert_ne!(grown, Operands::from([5]));
    }

    #[test]
    fn is_no_larger_than_the_vec_it_replaces() {
        use std::mem::size_of;
        use tiscc_grid::{QSite, QubitId};
        assert!(size_of::<Operands<QSite>>() <= size_of::<Vec<QSite>>());
        assert!(size_of::<Operands<QubitId>>() <= size_of::<Vec<QubitId>>());
    }
}

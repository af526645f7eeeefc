//! Differential oracle for the `.tql` parser.
//!
//! `oracle` below is the parser the one-pass byte scanner replaced, kept
//! verbatim as a test-only reference: a `char`-pattern line splitter,
//! `str::split('#')` comments, `str::split_whitespace` tokens, a
//! lowercased `String` per mnemonic (and a second one inside `from_id`)
//! and a collected operand `Vec`. For every text — valid or not — the
//! library parser must return the identical `Result<LogicalProgram,
//! ParseError>`, error line and message included. The texts are programs
//! from the workload zoo, mutated with Unicode and ASCII white space,
//! mixed line endings, `#` inside tokens, re-cased and `-`-spelled
//! mnemonics, unknown qubits, wrong arities, duplicate declarations, empty
//! `qubit` lines and liveness errors.

use std::sync::OnceLock;

use proptest::prelude::*;

use tiscc::program::{examples, LogicalProgram, QubitRef};
use tiscc::workloads::{generate, instruction_count, Family, GenSpec};

mod oracle {
    use tiscc::core::instruction::Instruction;
    use tiscc::program::{LogicalProgram, ParseError, ProgramError, QubitRef};

    pub fn instruction_from_mnemonic(word: &str) -> Option<Instruction> {
        let lowered = word.to_ascii_lowercase();
        let aliased = match lowered.as_str() {
            "prep_z" => Some(Instruction::PrepareZ),
            "prep_x" => Some(Instruction::PrepareX),
            "meas_z" => Some(Instruction::MeasureZ),
            "meas_x" => Some(Instruction::MeasureX),
            "merge_zz" => Some(Instruction::MeasureZZ),
            "merge_xx" => Some(Instruction::MeasureXX),
            "x" => Some(Instruction::PauliX),
            "y" => Some(Instruction::PauliY),
            "z" => Some(Instruction::PauliZ),
            "h" => Some(Instruction::Hadamard),
            _ => None,
        };
        aliased.or_else(|| from_id(&lowered).ok())
    }

    pub fn from_id(text: &str) -> Result<Instruction, ()> {
        let normalized: String = text
            .trim()
            .chars()
            .map(|c| if c == ' ' || c == '-' { '_' } else { c.to_ascii_lowercase() })
            .collect();
        Instruction::all().iter().copied().find(|i| i.id() == normalized).ok_or(())
    }

    fn source_lines(text: &str) -> SourceLines<'_> {
        SourceLines { rest: text }
    }

    struct SourceLines<'a> {
        rest: &'a str,
    }

    impl<'a> Iterator for SourceLines<'a> {
        type Item = &'a str;

        fn next(&mut self) -> Option<&'a str> {
            if self.rest.is_empty() {
                return None;
            }
            match self.rest.find(['\n', '\r']) {
                None => Some(std::mem::take(&mut self.rest)),
                Some(i) => {
                    let line = &self.rest[..i];
                    let sep = if self.rest[i..].starts_with("\r\n") { 2 } else { 1 };
                    self.rest = &self.rest[i + sep..];
                    Some(line)
                }
            }
        }
    }

    pub fn parse(name: impl Into<String>, text: &str) -> Result<LogicalProgram, ParseError> {
        let mut program = LogicalProgram::new(name);
        for (idx, raw) in source_lines(text).enumerate() {
            let lineno = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut tokens = line.split_whitespace();
            let head = tokens.next().expect("non-empty line has a first token");
            if head.eq_ignore_ascii_case("qubit") {
                let mut declared = 0usize;
                for qubit in tokens {
                    program
                        .add_qubit(qubit)
                        .map_err(|e| ParseError { line: lineno, message: e.to_string() })?;
                    declared += 1;
                }
                if declared == 0 {
                    return Err(ParseError {
                        line: lineno,
                        message: "qubit declaration names no qubits".to_string(),
                    });
                }
                continue;
            }
            let instruction = instruction_from_mnemonic(head).ok_or_else(|| ParseError {
                line: lineno,
                message: format!(
                    "unknown instruction '{head}'; valid mnemonics include qubit, prep_z, \
                     prep_x, inject_y, inject_t, meas_z, meas_x, x, y, z, h, idle, \
                     merge_xx, merge_zz"
                ),
            })?;
            let operands: Result<Vec<QubitRef>, ParseError> = tokens
                .map(|tok| {
                    program.qubit(tok).ok_or_else(|| ParseError {
                        line: lineno,
                        message: format!("unknown qubit '{tok}' (declare it with 'qubit {tok}')"),
                    })
                })
                .collect();
            program
                .push_at(instruction, &operands?, Some(lineno))
                .map_err(|e| ParseError { line: lineno, message: e.to_string() })?;
        }
        program
            .validate()
            .map_err(|e| ParseError { line: error_line(&e), message: e.to_string() })?;
        Ok(program)
    }

    fn error_line(e: &ProgramError) -> usize {
        match e {
            ProgramError::NotLive { line, .. } | ProgramError::AlreadyLive { line, .. } => {
                line.unwrap_or(1)
            }
            _ => 1,
        }
    }
}

/// Token separators: ASCII white space (`\x0B` is one that
/// `u8::is_ascii_whitespace` misses), Unicode white space, and `\x1C`,
/// which looks like a separator but is a token character to
/// `char::is_whitespace`.
const SEPARATORS: &[&str] = &[
    " ",
    "  ",
    "\t",
    "\x0B",
    "\x0C",
    " \x0B\t",
    "\u{00A0}",
    "\u{2028}",
    "\u{3000}",
    "\u{0085}",
    " \u{3000} ",
    "\x1C",
];

const LINE_ENDINGS: &[&str] = &["\n", "\r\n", "\r", "\n\n", "\r\r\n", " \x0C\n"];

/// A splitmix64 stream: the mutations draw from it so each proptest case
/// is one `u64` seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// The programs the mutations start from: the canonical examples and a
/// small instance of every workload family.
fn base_programs() -> Vec<LogicalProgram> {
    let mut programs: Vec<LogicalProgram> = examples::all().into_iter().map(|(_, p)| p).collect();
    for &family in Family::all() {
        programs.push(generate(&GenSpec::new(family).with_n(3).with_seed(11)).unwrap());
    }
    programs
}

/// One structural mutation of a tokenised program (a line is its token
/// list).
fn mutate_lines(lines: &mut Vec<Vec<String>>, rng: &mut Rng) {
    let n = lines.len();
    let i = rng.below(n.max(1)).min(n.saturating_sub(1));
    match rng.below(12) {
        // Re-case one mnemonic letter by letter.
        0 => {
            if let Some(word) = lines.get_mut(i).and_then(|l| l.first_mut()) {
                *word = word
                    .chars()
                    .map(|c| if rng.below(2) == 0 { c.to_ascii_uppercase() } else { c })
                    .collect();
            }
        }
        // Spell a mnemonic with `-` (valid for Table 1 ids, not aliases).
        1 => {
            if let Some(word) = lines.get_mut(i).and_then(|l| l.first_mut()) {
                *word = word.replace('_', "-");
            }
        }
        // `#` inside a token starts a comment there.
        2 => {
            if let Some(line) = lines.get_mut(i).filter(|l| !l.is_empty()) {
                let k = rng.below(line.len());
                let boundaries: Vec<usize> =
                    (0..=line[k].len()).filter(|&b| line[k].is_char_boundary(b)).collect();
                let at = boundaries[rng.below(boundaries.len())];
                line[k].insert(at, '#');
            }
        }
        // An undeclared operand.
        3 => {
            if let Some(line) = lines.get_mut(i).filter(|l| l.len() >= 2) {
                let k = 1 + rng.below(line.len() - 1);
                line[k] = "nope".into();
            }
        }
        // Too many or too few operands.
        4 => {
            if let Some(line) = lines.get_mut(i).filter(|l| l.len() >= 2) {
                if rng.below(2) == 0 {
                    line.pop();
                } else {
                    let extra = line[1].clone();
                    line.push(extra);
                }
            }
        }
        // A duplicate declaration of an existing qubit.
        5 => {
            if let Some(decl) = lines.iter().find(|l| l.first().is_some_and(|w| w == "qubit")) {
                if let Some(q) = decl.get(1).cloned() {
                    lines.insert(i, vec!["qubit".into(), q]);
                }
            }
        }
        // A `qubit` line that names nothing (possibly with a comment).
        6 => lines.insert(i, vec!["QUBIT".into(), "#".into(), "q0".into()]),
        // Dropping or repeating a line breaks liveness (or nothing).
        7 => {
            if n > 0 {
                lines.remove(i);
            }
        }
        8 => {
            if let Some(line) = lines.get(i).cloned() {
                lines.insert(i, line);
            }
        }
        // Swapping two lines reorders a preparation and its uses.
        9 => {
            if n > 1 {
                let j = rng.below(n);
                lines.swap(i, j);
            }
        }
        // A non-ASCII qubit name, declared and used.
        10 => {
            lines.insert(0, vec!["qubit".into(), "q\u{e9}".into()]);
            lines.push(vec!["prep_z".into(), "q\u{e9}".into()]);
        }
        // An unknown mnemonic, or a same-qubit merge.
        _ => {
            if let Some(line) = lines.get_mut(i).filter(|l| !l.is_empty()) {
                if line.len() == 3 {
                    line[2] = line[1].clone();
                } else {
                    line[0] = "frobnicate".into();
                }
            }
        }
    }
}

/// Renders token lines with random separators, padding, comments and
/// line endings.
fn render(lines: &[Vec<String>], rng: &mut Rng) -> String {
    let mut text = String::new();
    for line in lines {
        if rng.below(4) == 0 {
            text.push_str(rng.pick(SEPARATORS));
        }
        for (k, token) in line.iter().enumerate() {
            if k > 0 {
                text.push_str(rng.pick(SEPARATORS));
            }
            text.push_str(token);
        }
        if rng.below(6) == 0 {
            text.push_str(" # trailing\u{3000}comment");
        }
        text.push_str(rng.pick(LINE_ENDINGS));
    }
    if rng.below(3) == 0 {
        // No final terminator.
        while text.ends_with(['\n', '\r']) {
            text.pop();
        }
    }
    text
}

/// A mutated `.tql` text drawn from `seed`.
fn mutated_text(programs: &[LogicalProgram], seed: u64) -> (String, String) {
    let mut rng = Rng(seed);
    let program = &programs[rng.below(programs.len())];
    let mut lines: Vec<Vec<String>> =
        program.to_tql().lines().map(|l| l.split(' ').map(str::to_string).collect()).collect();
    for _ in 0..rng.below(4) {
        mutate_lines(&mut lines, &mut rng);
    }
    (program.name().to_string(), render(&lines, &mut rng))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Mutated texts parse to the oracle's exact result, errors included.
    #[test]
    fn parser_matches_the_oracle_on_mutated_texts(seed in 0u64..u64::MAX) {
        static PROGRAMS: OnceLock<Vec<LogicalProgram>> = OnceLock::new();
        let (name, text) = mutated_text(PROGRAMS.get_or_init(base_programs), seed);
        prop_assert_eq!(
            LogicalProgram::parse(name.as_str(), &text),
            oracle::parse(name.as_str(), &text),
            "{:?}",
            text
        );
    }
}

/// Hand-picked edge cases the random mutations may miss.
#[test]
fn parser_matches_the_oracle_on_edge_cases() {
    for text in [
        "",
        "\n",
        "\r",
        "\r\n\r\n",
        "#",
        "qubit",
        "qubit\x0B",
        "qubit\x0Ba",
        "qubit a\x1Cb\nprep_z a\x1Cb",
        "qubit a\u{00A0}b\nprep_z\u{3000}a\nprep_z b",
        "qubit a b\nprep_z a\nprep_z b\nmerge_zz a b c",
        "qubit a b\nprep_z a\nprep_z b\nmerge_zz a b nope",
        "qubit a\nprep_z a a a",
        "qubit a\nPrepare-Z a",
        "qubit a\nprep-z a",
        "qubit a\nINJECT_T a\nMeasure-X a",
        "qubit a\nmeasure_zz_extra a",
        "qubit a\nprepare_z_ a",
        "qubit a\n\u{e9} a",
        "qubit a\npr\u{e9}p_z a",
        "qubit a\nprep_z a#b\nmeas_z a",
        "qubit a\nprep_z a\rh a\r\nmeas_z a\rh a",
        "qubit a a",
        "qubit a\nqubit a",
        "qubit a\nmeas_z a",
        "qubit a\nprep_z a\nprep_x a",
    ] {
        assert_eq!(LogicalProgram::parse("p", text), oracle::parse("p", text), "{text:?}");
    }
}

/// `parse(to_tql(p))` reproduces every program of the workload zoo, with
/// the source lines the render puts its instructions on.
#[test]
fn every_zoo_program_round_trips_through_tql() {
    let mut programs = base_programs();
    for &family in Family::all() {
        for n in [2, 17, 200] {
            let spec = GenSpec::new(family).with_n(n).with_seed(5);
            // Families whose size grows faster than N stop at 17.
            if instruction_count(&spec).unwrap() <= 5_000 {
                programs.push(generate(&spec).unwrap());
            }
        }
    }
    for program in &programs {
        let text = program.to_tql();
        let parsed = LogicalProgram::parse(program.name(), &text).unwrap();
        assert_eq!(parsed, oracle::parse(program.name(), &text).unwrap(), "{}", program.name());
        assert_eq!(parsed.name(), program.name());
        assert_eq!(parsed.qubit_count(), program.qubit_count());
        for i in 0..program.qubit_count() {
            assert_eq!(parsed.qubit_name(QubitRef(i)), program.qubit_name(QubitRef(i)));
        }
        // The header comment is line 1 and the declaration (if any) line 2.
        let first = if program.qubit_count() > 0 { 3 } else { 2 };
        assert_eq!(parsed.len(), program.len(), "{}", program.name());
        for (i, (a, b)) in parsed.instructions().iter().zip(program.instructions()).enumerate() {
            assert_eq!((a.instruction, &a.qubits), (b.instruction, &b.qubits));
            assert_eq!(a.line, Some(first + i));
        }
    }
}

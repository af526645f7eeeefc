//! Command-line entry point regenerating the paper's tables and figures.
//!
//! Usage: `tiscc-report <experiment> [distances...]` where `<experiment>` is
//! one of `table1`, `table2`, `table3`, `table5`, `fig2`, `fig3`, `fig4`,
//! `fig6`, `resources`, `verification`, or `all`.

use tiscc_estimator::verify::{process_map_of, Fiducial, SingleTile};
use tiscc_estimator::{experiments, tables};

/// Writes formatted text to stdout. A reader that closed the pipe early
/// (`tiscc-report … | head`) is a normal end of output: the process exits 0
/// without a panic. Any other write error exits 1 with a message.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("tiscc-report: writing to stdout: {e}");
        std::process::exit(1);
    }
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiment = args.first().map(String::as_str).unwrap_or("all");
    let distances: Vec<usize> =
        args[1.min(args.len())..].iter().filter_map(|a| a.parse().ok()).collect();
    let distances = if distances.is_empty() { vec![2, 3] } else { distances };

    match experiment {
        "table1" => print_rows(
            "Table 1: local lattice-surgery instruction set",
            tables::table1_rows(&distances, 2),
        ),
        "table2" => {
            print_rows("Table 2: primitive operations", tables::table2_rows(distances[0].max(2), 2))
        }
        "table3" => print_rows(
            "Table 3: derived instruction set",
            tables::table3_rows(distances[0].max(2), 2),
        ),
        "table5" => outln!("{}", tables::table5()),
        "fig2" => {
            outln!("{}", experiments::arrangements_report(distances[0].max(2), distances[0].max(2)))
        }
        "fig3" => outln!("{}", experiments::operator_movement_report(distances[0].max(3))),
        "fig4" => match experiments::translation_report(distances[0].max(2)) {
            Ok((text, report)) => {
                outln!("{text}");
                outln!("{}", report.render());
            }
            Err(e) => eprintln!("error: {e}"),
        },
        "fig6" => outln!("{}", experiments::patterns_report()),
        "resources" => print_rows(
            "Sec. 3.4 resource-estimation sweep (dt = d)",
            tables::resource_sweep(&distances, true),
        ),
        "verification" => run_verification(),
        "all" => {
            outln!("{}", tables::table5());
            print_rows("Table 1", tables::table1_rows(&distances, 2));
            print_rows("Table 2", tables::table2_rows(distances[0].max(2), 2));
            print_rows("Table 3", tables::table3_rows(distances[0].max(2), 2));
            outln!("{}", experiments::arrangements_report(3, 3));
            outln!("{}", experiments::operator_movement_report(3));
            outln!("{}", experiments::patterns_report());
            run_verification();
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            std::process::exit(2);
        }
    }
}

fn print_rows(title: &str, rows: Result<Vec<tables::ResourceRow>, tiscc_core::CoreError>) {
    match rows {
        Ok(rows) => {
            outln!("{}", tables::render_rows(title, &rows));
            outln!("{}", tables::render_csv(&rows));
        }
        Err(e) => eprintln!("error compiling {title}: {e}"),
    }
}

fn run_verification() {
    outln!("Sec. 4 verification (state preparation + identity of Idle):");
    for fiducial in Fiducial::all() {
        let mut fixture = SingleTile::new(2, 2, 1).expect("fixture");
        fiducial.prepare(&mut fixture.hw, &mut fixture.patch).expect("prepare");
        let run = fixture.simulate(17);
        let bloch = fixture.logical_bloch(&run);
        outln!(
            "  prepare {:?}: bloch = ({:+.1}, {:+.1}, {:+.1}) target {:?}",
            fiducial,
            bloch.x,
            bloch.y,
            bloch.z,
            fiducial.bloch()
        );
    }
    let idle =
        process_map_of(3, 3, 1, 23, |hw, patch| patch.idle(hw).map(|_| ())).expect("idle map");
    outln!(
        "  Idle process map deviation from identity: {:.3e}",
        idle.max_deviation(&tiscc_orqcs::ProcessMap::identity())
    );
}

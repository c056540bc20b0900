//! The timed binary: end-to-end metrics, tracing and allocation counting
//! off (`--trace 0`).

fn main() -> std::process::ExitCode {
    ofc_benchmark::cli::main(false)
}

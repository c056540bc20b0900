//! The traced binary: per-layer metrics (`--trace 1`). Same code as the
//! timed binary plus a counting global allocator and span recording.

use ofc_benchmark::host::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    ofc_benchmark::cli::main(true)
}

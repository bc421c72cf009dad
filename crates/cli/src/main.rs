//! The `splash` command-line binary. All logic lives in the library half
//! ([`cli::dispatch`]) so it can be exercised by integration tests.

fn main() {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    match cli::dispatch(tokens) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

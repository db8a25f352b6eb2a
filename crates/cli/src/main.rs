//! The `agreements` binary: thin wrapper over [`agreements_cli::run`].

#![deny(unsafe_code)]

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match agreements_cli::run(&args) {
        Ok(output) => print!("{output}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

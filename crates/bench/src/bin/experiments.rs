//! Run the paper's experiments and check their claims.
//!
//! Usage: `experiments [ID…]` — no IDs runs every row of
//! `tw_bench::experiments::ALL`. Prints each row's tables (EXPERIMENTS.md
//! shows the expected output); exits 1 if a claim fails, 2 on an unknown
//! ID.

use tw_bench::experiments::{find, ALL};

fn main() {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let rows: Vec<_> = if ids.is_empty() {
        ALL.iter().collect()
    } else {
        let known: Option<Vec<_>> = ids.iter().map(|id| find(id)).collect();
        known.unwrap_or_else(|| {
            let all: Vec<&str> = ALL.iter().map(|e| e.id).collect();
            eprintln!(
                "experiments: unknown ID among {ids:?}; known: {}",
                all.join(" ")
            );
            std::process::exit(2);
        })
    };
    let mut failed = false;
    for e in rows {
        let outcome = (e.run)();
        print!("{}", outcome.text);
        if let Err(why) = outcome.verdict {
            eprintln!("{}: claim failed: {why}", e.id);
            failed = true;
        }
    }
    std::process::exit(i32::from(failed));
}

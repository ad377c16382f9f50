//! Scrub-interval study: how background scrubbing interacts with the
//! relaxed-ECC strategies — the faster single-bit faults are healed, the
//! fewer accumulate into SECDED-uncorrectable pairs that must fall back
//! to the cooperative ABFT path.

use abft_coop::studies::{scrub, SCRUB_LINES};
use abft_coop_core::report::{pct, Report, TextTable};

pub fn run(out: &mut Report) {
    let mut t = TextTable::new(&[
        "scrub every N strikes",
        "corrected by scrub",
        "uncorrectable at read",
        "uncorrectable rate",
    ]);
    for interval in [None, Some(2000), Some(500), Some(100), Some(20)] {
        let (scrub_corrected, bad) = scrub(interval);
        t.row(&[
            interval.map_or("never".into(), |i| i.to_string()),
            scrub_corrected.to_string(),
            bad.to_string(),
            pct(bad as f64 / SCRUB_LINES as f64),
        ]);
    }
    write!(out, "{}", t.render());
    writeln!(out, "\nFrequent scrubbing drains single-bit faults before they pair up —");
    writeln!(out, "shrinking the population of SECDED-uncorrectable errors that the");
    writeln!(out, "cooperative interrupt -> sysfs -> ABFT path (or, traditionally, a");
    writeln!(out, "panic) must absorb.");
}

//! Every exhibit, held to its recording: `all` rendered from the
//! recorded exploration (`results/exploration.csv`) must equal
//! `results/exhibits_full.txt` line for line. Table 3's "this run"
//! column is left out of the comparison — the recording holds a live
//! run's clock and cache counters there, which a replayed CSV does not
//! carry.
//!
//! After an intended change, regenerate both files with the command in
//! `results/README.md` and review the diff like any other code change.

use cfp_exhibits::exhibits;

fn recorded(name: &str) -> String {
    let path = format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read `{path}`: {e}"))
}

/// `text` with the "this run" column cut out of Table 3 (the table is
/// ASCII, so the header's byte columns hold for every row).
fn without_this_run(text: &str) -> String {
    let mut out = String::new();
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        out.push_str(line);
        out.push('\n');
        if !line.starts_with("Table 3:") {
            continue;
        }
        let header = lines.next().expect("Table 3 has a header");
        let cut = |h: &str| header.find(h).expect("Table 3 column") + h.len();
        let (from, to) = (cut("quantity"), cut("this run"));
        for row in std::iter::once(header).chain(lines.by_ref().take_while(|l| !l.is_empty())) {
            out.push_str(&row[..from]);
            out.push_str(&row[to..]);
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

#[test]
fn every_exhibit_matches_its_recording() {
    let ex = cfp_dse::from_csv(&recorded("exploration.csv")).expect("recorded run parses");
    let mut rendered = String::new();
    for name in exhibits::all() {
        let out = exhibits::render(name, Some(&ex), false, false).expect("a known exhibit");
        rendered.push_str(&out);
        rendered.push_str("\n\n");
    }
    let (want, got) = (
        without_this_run(&recorded("exhibits_full.txt")),
        without_this_run(&rendered),
    );
    for (n, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        assert_eq!(w, g, "results/exhibits_full.txt line {} drifted", n + 1);
    }
    assert_eq!(want.lines().count(), got.lines().count());
}

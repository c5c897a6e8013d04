//! Index write amplification: a committed point update copies the index
//! entries it touches — a few chunks — not every index of the table.
//!
//! Deterministic and count-only: the copy count is read from the
//! `simdb_index_entries_copied_per_write` histogram that `/metrics`
//! exposes. This file holds a single test, so no other commit in the
//! process moves the histogram between the two reads.

use amp::obs::Unit;
use amp::simdb::prelude::*;

const ROWS: i64 = 20_000;
const OWNERS: i64 = 5_000;
const STATUSES: [&str; 4] = ["QUEUED", "RUNNING", "DONE", "FAILED"];

/// `(count, sum)` of a write-path histogram.
fn observed(name: &str) -> (u64, u64) {
    let snap = amp::obs::registry().histogram(name, Unit::Count).snapshot();
    (snap.count, snap.sum)
}

#[test]
fn point_update_copies_a_few_index_chunks_and_pinned_view_keeps_old_postings() {
    let db = Db::in_memory();
    db.define_role(Role::superuser("admin"));
    let admin = db.connect("admin").unwrap();
    admin
        .create_table(TableSchema::new(
            "owner",
            vec![Column::new("name", ValueType::Text).not_null()],
        ))
        .unwrap();
    admin
        .create_table(TableSchema::new(
            "job",
            vec![
                Column::new("tag", ValueType::Text).not_null().unique(),
                Column::new("owner", ValueType::Int)
                    .not_null()
                    .references("owner", OnDelete::Cascade)
                    .indexed(),
                Column::new("status", ValueType::Text).not_null().indexed(),
            ],
        ))
        .unwrap();
    admin
        .transaction(&["owner", "job"], |tx| {
            for o in 0..OWNERS {
                tx.insert("owner", &[("name", format!("o{o}").into())])?;
            }
            for i in 0..ROWS {
                tx.insert(
                    "job",
                    &[
                        ("tag", format!("t{i}").into()),
                        ("owner", (i % OWNERS + 1).into()),
                        ("status", STATUSES[i as usize % 4].into()),
                    ],
                )?;
            }
            Ok(())
        })
        .unwrap();

    // Row 6 holds status RUNNING (its insert index 5).
    let id = 6;
    let running = Query::new().eq("status", "RUNNING");
    let done = Query::new().eq("status", "DONE");
    let view = admin.read_view(&["job"]).unwrap();
    let before_running = view.select("job", &running).unwrap();
    assert_eq!(before_running.len(), (ROWS / 4) as usize);

    let (n0, idx0) = observed("simdb_index_entries_copied_per_write");
    let (_, rows0) = observed("simdb_rows_copied_per_write");
    admin
        .update("job", id, &[("status", "DONE".into())])
        .unwrap();
    let (n1, idx1) = observed("simdb_index_entries_copied_per_write");
    let (_, rows1) = observed("simdb_rows_copied_per_write");

    assert_eq!(n1 - n0, 1, "one committed write, one observation");
    assert_eq!(rows1 - rows0, 1, "a point update materializes one row");
    // The status index copies its one value chunk (4 entries) plus one id
    // chunk (at most 512 ids, 4 KiB) in each of the two 5,000-id
    // postings; the unique and FK indexes are untouched. Copying whole
    // indexes would copy each index's 20,000 entries.
    let copied = idx1 - idx0;
    assert!(
        copied <= 2 * 512 + 4,
        "point update copied {copied} index entries (table has {ROWS} rows)"
    );

    // The pinned version still answers from its old postings.
    assert_eq!(view.select("job", &running).unwrap(), before_running);
    assert!(!view
        .select("job", &done)
        .unwrap()
        .iter()
        .any(|(r, _)| *r == id));
    assert_eq!(view.count("job", &done).unwrap(), (ROWS / 4) as usize);
    // The live version sees the move.
    assert!(admin
        .select("job", &done)
        .unwrap()
        .iter()
        .any(|(r, _)| *r == id));
    assert_eq!(
        admin.count("job", &running).unwrap(),
        (ROWS / 4 - 1) as usize
    );
}

//! MVCC read-path properties and regressions.
//!
//! The engine's read side is lock-free: readers pin a published immutable
//! version of each table instead of taking the shard lock. These tests pin
//! down the contract that makes that safe to build on:
//!
//! 1. a pinned `ReadView` is *frozen* — its version stamps never move and
//!    its rows never tear, no matter how many transactions commit while it
//!    is held (property test over arbitrary commit-batch shapes);
//! 2. superseded versions are freed once the last view holding them drops
//!    (no unbounded version retention — watched through the
//!    `simdb_table_live_versions` gauge);
//! 3. `compact()` never blocks writers: it snapshots a pinned cut and
//!    truncates the WAL per table, so it completes even while an open
//!    transaction holds a table's write lock — and the in-flight
//!    transaction's records survive the truncation and recover;
//! 4. plain reads never touch the shard lock: the writer-path lock-wait
//!    histogram records nothing during a pure-read phase;
//! 5. the write side's delta buffer is semantically invisible: reads
//!    inside a transaction see buffer-over-base, a commit publishes
//!    exactly the merged state, and a rollback leaves the published spine
//!    untouched — all equal to a single-threaded oracle applying the same
//!    operations (property test over arbitrary transaction sequences).

use amp::simdb::prelude::*;
use amp::simdb::Database;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::mpsc;
use std::time::Duration;

fn fresh_db(table: &str) -> Db {
    let db = Db::in_memory();
    db.define_role(Role::superuser("admin"));
    db.define_role(Role::new("app").grant(table, PermSet::ALL));
    let admin = db.connect("admin").unwrap();
    admin
        .create_table(TableSchema::new(
            table,
            vec![Column::new("v", ValueType::Int)],
        ))
        .unwrap();
    db
}

/// Drive a writer committing transactions of the given batch sizes while
/// readers continuously pin views, and assert every view is a frozen,
/// untorn commit-boundary state.
fn check_frozen_views(batches: &[usize]) {
    let db = fresh_db("mv");
    // Valid observable states: creation only, or any whole-batch prefix.
    let mut prefix_sums = BTreeSet::new();
    let mut sum = 0usize;
    prefix_sums.insert(0);
    for b in batches {
        sum += b;
        prefix_sums.insert(sum);
    }
    let total = sum;

    let writer = {
        let db = db.clone();
        let batches = batches.to_vec();
        std::thread::spawn(move || {
            let c = db.connect("app").unwrap();
            for (i, size) in batches.iter().enumerate() {
                c.transaction(&["mv"], |tx| {
                    for _ in 0..*size {
                        tx.insert("mv", &[("v", Value::Int(i as i64))])?;
                    }
                    Ok(())
                })
                .unwrap();
            }
        })
    };

    let c = db.connect("app").unwrap();
    let mut last_count = 0usize;
    loop {
        let view = c.read_view(&["mv"]).unwrap();
        let count = view.count("mv", &Query::new()).unwrap();
        let stamp = view.versions()[0];
        // Only commit-boundary states are observable (transactions publish
        // atomically), and the version counter moves in lockstep with the
        // rows: creation is 1, every insert bumps by exactly 1.
        assert!(
            prefix_sums.contains(&count),
            "torn commit: saw {count} rows, valid states are {prefix_sums:?}"
        );
        assert_eq!(stamp, 1 + count as u64, "stamp out of sync with rows");
        // No batch is ever partially visible.
        let rows = view.select("mv", &Query::new()).unwrap();
        for (i, size) in batches.iter().enumerate() {
            let seen = rows
                .iter()
                .filter(|(_, r)| r[0] == Value::Int(i as i64))
                .count();
            assert!(
                seen == 0 || seen == *size,
                "batch {i} torn: {seen} of {size} rows visible"
            );
        }
        // The view is frozen: re-reading it after more commits may have
        // landed yields byte-identical state.
        std::thread::yield_now();
        assert_eq!(view.count("mv", &Query::new()).unwrap(), count);
        assert_eq!(view.versions()[0], stamp);
        // Successive views are monotone (no time travel).
        assert!(count >= last_count);
        last_count = count;
        if count == total {
            break;
        }
    }
    writer.join().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: a pinned `ReadView` never observes version counters move
    /// or rows tear while concurrent transactions commit.
    #[test]
    fn pinned_views_are_frozen_and_untorn(batches in proptest::collection::vec(1usize..=5, 1..10)) {
        check_frozen_views(&batches);
    }
}

/// One operation inside a generated transaction. `t` selects one of the
/// two tables; `pick` resolves to a live row id at application time.
#[derive(Debug, Clone)]
enum TxOp {
    Insert { t: bool, v: i16 },
    Update { t: bool, pick: u8, v: i16 },
    Delete { t: bool, pick: u8 },
}

fn arb_tx_op() -> impl Strategy<Value = TxOp> {
    prop_oneof![
        (any::<bool>(), any::<i16>()).prop_map(|(t, v)| TxOp::Insert { t, v }),
        (any::<bool>(), any::<u8>(), any::<i16>()).prop_map(|(t, pick, v)| TxOp::Update {
            t,
            pick,
            v
        }),
        (any::<bool>(), any::<u8>()).prop_map(|(t, pick)| TxOp::Delete { t, pick }),
    ]
}

/// Drive the same transaction sequence through the buffered MVCC engine
/// and a single-threaded [`Database`] oracle, checking three things per
/// transaction:
///
/// 1. *buffer-over-base reads*: mid-transaction, `Txn::select` sees the
///    transaction's own uncommitted ops layered over the published base;
/// 2. *publish merges exactly*: after a commit, the published state equals
///    the oracle having applied the same ops;
/// 3. *rollback is total*: after an aborted transaction, the published
///    state (including id allocation) is exactly what it was before —
///    the write buffer is dropped, the spine untouched.
fn check_buffered_txns_match_oracle(txns: &[(Vec<TxOp>, bool)]) {
    let db = Db::in_memory();
    db.define_role(Role::superuser("admin"));
    let admin = db.connect("admin").unwrap();
    let mut oracle = Database::new();
    for t in ["bufa", "bufb"] {
        let schema = TableSchema::new(t, vec![Column::new("v", ValueType::Int)]);
        admin.create_table(schema.clone()).unwrap();
        oracle.create_table(schema).unwrap();
    }
    let name = |t: bool| if t { "bufa" } else { "bufb" };
    let all = Query::new();

    for (ops, rollback) in txns {
        // Resolve picks and apply against a tentative oracle as we go, so
        // an op may legitimately target a row inserted (or miss one
        // deleted) earlier in the same transaction.
        let mut tentative = oracle.clone();
        let result: Result<(), DbError> = admin.transaction(&["bufa", "bufb"], |tx| {
            for op in ops {
                match op {
                    TxOp::Insert { t, v } => {
                        let want = tentative
                            .insert(name(*t), &[("v", Value::Int(*v as i64))])
                            .unwrap()
                            .0;
                        let got = tx.insert(name(*t), &[("v", Value::Int(*v as i64))])?;
                        assert_eq!(got, want, "id allocation diverged from oracle");
                    }
                    TxOp::Update { t, pick, v } => {
                        let rows = tentative.select(name(*t), &all).unwrap();
                        if rows.is_empty() {
                            continue;
                        }
                        let id = rows[*pick as usize % rows.len()].0;
                        tentative
                            .update(name(*t), id, &[("v", Value::Int(*v as i64))])
                            .unwrap();
                        tx.update(name(*t), id, &[("v", Value::Int(*v as i64))])?;
                    }
                    TxOp::Delete { t, pick } => {
                        let rows = tentative.select(name(*t), &all).unwrap();
                        if rows.is_empty() {
                            continue;
                        }
                        let id = rows[*pick as usize % rows.len()].0;
                        tentative.delete(name(*t), id).unwrap();
                        tx.delete(name(*t), id)?;
                    }
                }
            }
            // Buffer-over-base: the transaction's own reads see its
            // uncommitted ops merged over the published base.
            for t in [true, false] {
                assert_eq!(
                    tx.select(name(t), &all).unwrap(),
                    tentative.select(name(t), &all).unwrap(),
                    "mid-transaction read diverged from buffered state"
                );
            }
            if *rollback {
                Err(DbError::Io("forced rollback".into()))
            } else {
                Ok(())
            }
        });
        assert_eq!(result.is_err(), *rollback);
        if !rollback {
            oracle = tentative;
        }
        // Published state must equal the oracle's committed state exactly —
        // after a rollback that means exactly the pre-transaction state.
        for t in [true, false] {
            assert_eq!(
                admin.select(name(t), &all).unwrap(),
                oracle.select(name(t), &all).unwrap(),
                "published state diverged from single-threaded oracle"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property: the per-transaction delta write-buffer is invisible in
    /// the result — buffered reads, committed merges, and rollbacks all
    /// match a single-threaded engine applying the same operations.
    #[test]
    fn buffered_transactions_match_single_threaded_oracle(
        txns in proptest::collection::vec(
            (proptest::collection::vec(arb_tx_op(), 0..8), any::<bool>()),
            0..12,
        )
    ) {
        check_buffered_txns_match_oracle(&txns);
    }
}

/// Regression: superseded versions are freed once the last `ReadView`
/// pinning them drops — retention is bounded by live views, observable via
/// the `simdb_table_live_versions{table}` gauge.
#[test]
fn dropping_last_read_view_frees_superseded_versions() {
    // The metrics registry is process-global and these integration tests
    // share one process, so this table name must be unique to this test.
    let table = "mv_retain";
    let db = fresh_db(table);
    let gauge = amp::obs::registry().gauge(&amp::obs::labeled(
        "simdb_table_live_versions",
        &[("table", table)],
    ));
    let c = db.connect("app").unwrap();
    c.insert(table, &[("v", Value::Int(0))]).unwrap();
    assert_eq!(gauge.get(), 1, "no views held: only the tip is alive");

    let view = c.read_view(&[table]).unwrap();
    for i in 1..=5 {
        c.insert(table, &[("v", Value::Int(i))]).unwrap();
    }
    // The view keeps exactly its pinned version alive alongside the tip;
    // the versions in between were freed as they were superseded.
    assert_eq!(gauge.get(), 2, "pinned version + tip");
    assert_eq!(view.count(table, &Query::new()).unwrap(), 1);

    drop(view);
    // The next publish prunes the version the view was keeping alive.
    c.insert(table, &[("v", Value::Int(6))]).unwrap();
    assert_eq!(gauge.get(), 1, "superseded version leaked past last view");
}

/// Regression: `compact()` never blocks writers (it used to take every
/// table's shared lock across file I/O, queueing all writers). It must
/// complete while an open transaction holds a table's *write* lock, and
/// the in-flight transaction's WAL records must survive the per-table
/// truncation and recover.
#[test]
fn compact_does_not_block_writers() {
    let dir = std::env::temp_dir().join(format!("simdb_mvcc_compact_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let db = Db::open(dir.join("db.snap"), dir.join("db.wal")).unwrap();
    db.define_role(Role::superuser("admin"));
    db.define_role(Role::new("app").grant("t", PermSet::ALL));
    let admin = db.connect("admin").unwrap();
    admin
        .create_table(TableSchema::new(
            "t",
            vec![Column::new("v", ValueType::Int)],
        ))
        .unwrap();
    for i in 0..200 {
        admin.insert("t", &[("v", Value::Int(i))]).unwrap();
    }

    // A transaction that holds t's write lock until released.
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let txn = {
        let db = db.clone();
        std::thread::spawn(move || {
            let c = db.connect("app").unwrap();
            c.transaction(&["t"], |tx| {
                tx.insert("t", &[("v", Value::Int(1000))])?;
                started_tx.send(()).unwrap();
                release_rx.recv().unwrap(); // hold the write lock
                Ok(())
            })
            .unwrap();
        })
    };
    started_rx.recv().unwrap();

    // Compaction completes while the write lock is held: it reads pinned
    // versions, not the locked working state. Run it on a helper thread
    // with a timeout so a regression fails instead of hanging the suite.
    let (done_tx, done_rx) = mpsc::channel();
    let compactor = {
        let db = db.clone();
        std::thread::spawn(move || {
            let _ = done_tx.send(db.compact());
        })
    };
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("compact() blocked behind an open write transaction")
        .unwrap();
    compactor.join().unwrap();

    // The uncommitted insert is invisible to the compacted snapshot...
    assert_eq!(
        admin.count("t", &Query::new()).unwrap(),
        200,
        "compaction must not expose uncommitted state"
    );
    release_tx.send(()).unwrap();
    txn.join().unwrap();
    // ...but commits fine afterwards: its WAL record sequences after the
    // snapshot's per-table coverage, so truncation preserved it.
    assert_eq!(admin.count("t", &Query::new()).unwrap(), 201);

    drop(admin);
    drop(db);
    let db = Db::open(dir.join("db.snap"), dir.join("db.wal")).unwrap();
    db.define_role(Role::superuser("admin"));
    let c = db.connect("admin").unwrap();
    assert_eq!(c.count("t", &Query::new()).unwrap(), 201);
    assert_eq!(
        c.count("t", &Query::new().eq("v", Value::Int(1000)))
            .unwrap(),
        1,
        "in-flight transaction's record lost by compaction truncate"
    );
}

/// The read path takes no lock at all: a pure-read phase records nothing
/// in the (writer-path-only) per-table lock-wait histogram.
#[test]
fn pure_reads_never_touch_the_lock() {
    let table = "mv_lockfree";
    let db = fresh_db(table);
    let c = db.connect("app").unwrap();
    for i in 0..50 {
        c.insert(table, &[("v", Value::Int(i))]).unwrap();
    }
    let wait = amp::obs::registry().histogram(
        &amp::obs::labeled("simdb_table_lock_wait_seconds", &[("table", table)]),
        amp::obs::Unit::Seconds,
    );
    let before = wait.count();
    for _ in 0..500 {
        assert_eq!(c.count(table, &Query::new()).unwrap(), 50);
        let view = c.read_view(&[table]).unwrap();
        assert_eq!(view.versions().len(), 1);
        assert_eq!(db.table_version(table), 51);
    }
    assert_eq!(wait.count(), before, "a plain read acquired a shard lock");
}

/// One step of the index-isolation property: an insert, update or delete
/// over a table with a nullable unique column `u`, a nullable low-
/// cardinality indexed column `g` and a NOT NULL indexed column `s`. The
/// small `u` domain of new values makes unique violations (rejected
/// writes) common.
#[derive(Debug, Clone)]
enum IxOp {
    Insert {
        u: Option<u8>,
        g: Option<u8>,
        s: u8,
    },
    Update {
        pick: u16,
        u: Option<u8>,
        g: Option<u8>,
        s: u8,
    },
    Delete {
        pick: u16,
    },
}

fn arb_ix_op() -> impl Strategy<Value = IxOp> {
    let cells = || {
        (
            proptest::option::of(0u8..12),
            proptest::option::of(0u8..4),
            0u8..40,
        )
    };
    let insert = move || cells().prop_map(|(u, g, s)| IxOp::Insert { u, g, s });
    // Inserts twice as likely as updates or deletes.
    prop_oneof![
        insert(),
        insert(),
        (any::<u16>(), cells()).prop_map(|(pick, (u, g, s))| IxOp::Update { pick, u, g, s }),
        any::<u16>().prop_map(|pick| IxOp::Delete { pick }),
    ]
}

/// Rows loaded before the random steps: enough that the unique index's
/// values and each 550-id posting of `g` span several chunks, so writes
/// split and drop chunks of shared spines.
const IX_PRELOAD: i64 = 1_100;

fn ix_schema() -> TableSchema {
    TableSchema::new(
        "ix",
        vec![
            Column::new("u", ValueType::Int).unique(),
            Column::new("g", ValueType::Int).indexed(),
            Column::new("s", ValueType::Int).not_null().indexed(),
        ],
    )
}

/// Queries that drive every index path: unique and secondary `Eq`
/// probes, `In` probes, range scans and index-ordered scans.
fn ix_queries() -> Vec<Query> {
    let mut qs = Vec::new();
    for v in (0..12).chain([1_000, 1_555, 2_099]) {
        qs.push(Query::new().eq("u", v as i64));
    }
    for v in 0..4 {
        qs.push(Query::new().eq("g", v as i64));
    }
    let set = |vs: &[i64]| Op::In(vs.iter().map(|&v| Value::Int(v)).collect());
    qs.push(Query::new().filter("u", set(&[1, 5, 9, 1_200, 1_800]), Value::Null));
    qs.push(Query::new().filter("g", set(&[0, 2]), Value::Null));
    for (lo, hi) in [(0, 40), (5, 6), (10, 30), (39, 40), (20, 10)] {
        qs.push(
            Query::new()
                .filter("s", Op::Ge, lo as i64)
                .filter("s", Op::Lt, hi as i64),
        );
    }
    qs.push(Query::new().filter("u", Op::Gt, 2_000i64));
    qs.push(Query::new().order_by("s").limit(7));
    qs.push(Query::new().order_by_desc("s").order_by("u").limit(9));
    qs.push(Query::new().order_by("s"));
    qs
}

/// Any id allocated so far (`1..=max_id`), unless deleted.
fn pick_live(tx: &amp::simdb::Txn<'_>, p: u16, max_id: i64) -> Option<i64> {
    let id = 1 + p as i64 % max_id;
    tx.get("ix", id).is_ok().then_some(id)
}

/// Every pinned version's index-driven answers must equal those of a
/// table bulk-indexed (`rebuild_indexes`) from that version's own rows —
/// so no later write, committed or rejected, leaked into the chunks a
/// pinned version shares with its successors.
fn check_pinned_indexes_match_rebuild(steps: &[(Vec<IxOp>, bool)]) {
    let db = Db::in_memory();
    db.define_role(Role::superuser("admin"));
    let admin = db.connect("admin").unwrap();
    admin.create_table(ix_schema()).unwrap();
    admin
        .transaction(&["ix"], |tx| {
            for i in 0..IX_PRELOAD {
                tx.insert_row(
                    "ix",
                    vec![(1_000 + i).into(), (i % 2).into(), (i % 40).into()],
                )?;
            }
            Ok(())
        })
        .unwrap();
    let all = Query::new();
    let int = |v: Option<u8>| v.map_or(Value::Null, |v| Value::Int(v as i64));
    let mut max_id = IX_PRELOAD;
    let mut pinned: Vec<(ReadView, Vec<(i64, Row)>)> = Vec::new();

    for (ops, pin) in steps {
        let _ = admin.transaction(&["ix"], |tx| {
            for op in ops {
                match op {
                    IxOp::Insert { u, g, s } => {
                        let id =
                            tx.insert_row("ix", vec![int(*u), int(*g), Value::Int(*s as i64)])?;
                        max_id = max_id.max(id);
                    }
                    IxOp::Update { pick: p, u, g, s } => {
                        if let Some(id) = pick_live(tx, *p, max_id) {
                            tx.update_row("ix", id, vec![int(*u), int(*g), Value::Int(*s as i64)])?;
                        }
                    }
                    IxOp::Delete { pick: p } => {
                        if let Some(id) = pick_live(tx, *p, max_id) {
                            tx.delete("ix", id)?;
                        }
                    }
                }
            }
            Ok(())
        });
        if *pin {
            let view = admin.read_view(&["ix"]).unwrap();
            let rows = view.select("ix", &all).unwrap();
            pinned.push((view, rows));
        }
    }
    let view = admin.read_view(&["ix"]).unwrap();
    let rows = view.select("ix", &all).unwrap();
    pinned.push((view, rows));

    for (view, rows_at_pin) in &pinned {
        let rows = view.select("ix", &all).unwrap();
        assert_eq!(&rows, rows_at_pin, "pinned version's rows moved");
        let mut fresh = amp::simdb::table::Table::new(ix_schema()).unwrap();
        for (id, row) in &rows {
            fresh.insert_with_id(*id, row.clone()).unwrap();
        }
        fresh.rebuild_indexes().unwrap();
        for q in ix_queries() {
            assert_eq!(
                view.select("ix", &q).unwrap(),
                q.execute(&fresh).unwrap(),
                "pinned index diverged from a rebuild for {q:?}"
            );
            assert_eq!(view.count("ix", &q).unwrap(), q.count(&fresh).unwrap());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: copy-on-write index chunks never leak writes across
    /// versions — every pinned version answers Eq, In, range and
    /// index-ordered queries exactly as a fresh bulk rebuild of its rows.
    #[test]
    fn pinned_indexes_match_a_rebuild_of_their_rows(
        steps in proptest::collection::vec(
            (proptest::collection::vec(arb_ix_op(), 1..4), any::<u8>().prop_map(|p| p < 64)),
            1..30,
        )
    ) {
        check_pinned_indexes_match_rebuild(&steps);
    }
}

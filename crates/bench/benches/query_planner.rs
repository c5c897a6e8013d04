//! Storage-engine fast path: the cost-based query planner and the WAL
//! group commit against seed-replica baselines, plus the committed
//! point-update cost at two table sizes (`storage/write/*`) and the cost
//! of a checkpoint with and without reusable row chunks
//! (`storage/compact/*`).
//!
//! The `*/reference` ids reimplement the pre-planner engine inline — a
//! full scan that clones every row before filtering, and a WAL writer
//! that deep-clones each op, serializes a `WalRecord` wrapper, and does
//! write+flush once per record. The `*/planner` and `*/group_commit` ids
//! run the shipped code, so one `cargo bench --bench query_planner` run
//! prints both sides of every headline ratio (see BENCH_simdb.json).

use amp_simdb::db::LogOp;
use amp_simdb::wal::Wal;
use amp_simdb::{Column, Database, Db, Op, Query, Role, Row, TableSchema, Value, ValueType};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::io::Write;

const N: i64 = 10_000;

fn fixture() -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "obs",
        vec![
            Column::new("tag", ValueType::Text).not_null().unique(),
            Column::new("site", ValueType::Text).indexed().not_null(),
            Column::new("v", ValueType::Int).indexed().not_null(),
            Column::new("payload", ValueType::Text).not_null(),
        ],
    ))
    .unwrap();
    for i in 0..N {
        db.insert(
            "obs",
            &[
                ("tag", format!("t{i}").into()),
                ("site", format!("s{}", i % 16).into()),
                ("v", Value::Int((i * 7919) % N)),
                // a fat column makes row clones honestly expensive,
                // like the simulation rows the daemon pages through
                ("payload", format!("{i:->96}").into()),
            ],
        )
        .unwrap();
    }
    db
}

/// The seed execution strategy: clone every row out of the table, then
/// filter/sort/slice the owned vector.
fn reference_select(db: &Database, q: &Query) -> Vec<(i64, Row)> {
    let mut rows = db.select("obs", &Query::new()).unwrap();
    let keep = |row: &Row, q: &Query| -> bool {
        q.filters.iter().all(|f| {
            let ci = ["tag", "site", "v", "payload"]
                .iter()
                .position(|c| *c == f.column)
                .unwrap();
            let cell = &row[ci];
            match &f.op {
                Op::Eq => cell.key_eq(&f.value),
                Op::Ge => !cell.is_null() && cell.total_cmp(&f.value).is_ge(),
                Op::Lt => !cell.is_null() && cell.total_cmp(&f.value).is_lt(),
                Op::In(vals) => vals.iter().any(|v| v.key_eq(cell)),
                _ => unimplemented!(),
            }
        })
    };
    rows.retain(|(_, row)| keep(row, q));
    if !q.order_by.is_empty() {
        rows.sort_by(|a, b| {
            for o in &q.order_by {
                let ci = ["tag", "site", "v", "payload"]
                    .iter()
                    .position(|c| *c == o.column)
                    .unwrap();
                let ord = a.1[ci].total_cmp(&b.1[ci]);
                let ord = if o.descending { ord.reverse() } else { ord };
                if !ord.is_eq() {
                    return ord;
                }
            }
            a.0.cmp(&b.0)
        });
    }
    let start = q.offset.min(rows.len());
    let end = q.limit.map_or(rows.len(), |l| (start + l).min(rows.len()));
    rows[start..end].to_vec()
}

fn bench_read_path(c: &mut Criterion) {
    let db = fixture();
    let mut g = c.benchmark_group("storage/read");
    g.sample_size(30);

    // ~1% selective range over the ordered index — the ISSUE headline
    let range =
        Query::new()
            .filter("v", Op::Ge, Value::Int(4_000))
            .filter("v", Op::Lt, Value::Int(4_100));
    g.bench_function("range_1pct_10k/planner", |b| {
        b.iter(|| black_box(db.select("obs", black_box(&range)).unwrap()))
    });
    g.bench_function("range_1pct_10k/reference", |b| {
        b.iter(|| black_box(reference_select(&db, black_box(&range))))
    });

    let probe = Query::new().eq("tag", "t9000");
    g.bench_function("unique_probe/planner", |b| {
        b.iter(|| black_box(db.select("obs", black_box(&probe)).unwrap()))
    });
    g.bench_function("unique_probe/reference", |b| {
        b.iter(|| black_box(reference_select(&db, black_box(&probe))))
    });

    let worklist =
        Query::new().filter("site", Op::In(vec!["s3".into(), "s11".into()]), Value::Null);
    g.bench_function("in_worklist/planner", |b| {
        b.iter(|| black_box(db.select("obs", black_box(&worklist)).unwrap()))
    });
    g.bench_function("in_worklist/reference", |b| {
        b.iter(|| black_box(reference_select(&db, black_box(&worklist))))
    });

    let topk = Query::new().order_by_desc("v").limit(10);
    g.bench_function("topk_10_of_10k/planner", |b| {
        b.iter(|| black_box(db.select("obs", black_box(&topk)).unwrap()))
    });
    g.bench_function("topk_10_of_10k/reference", |b| {
        b.iter(|| black_box(reference_select(&db, black_box(&topk))))
    });

    let half = Query::new().filter("v", Op::Ge, Value::Int(N / 2));
    g.bench_function("count_half_10k/planner", |b| {
        b.iter(|| black_box(db.count("obs", black_box(&half)).unwrap()))
    });
    g.bench_function("count_half_10k/reference", |b| {
        b.iter(|| black_box(reference_select(&db, black_box(&half)).len()))
    });
    g.finish();
}

/// The seed append strategy: per record, deep-clone the op into a
/// `WalRecord` wrapper, serialize it, then two write calls and a flush.
struct NaiveWal {
    writer: std::io::BufWriter<std::fs::File>,
    next_seq: u64,
}

#[derive(serde::Serialize)]
struct NaiveRecord {
    seq: u64,
    op: LogOp,
}

impl NaiveWal {
    fn append(&mut self, ops: &[LogOp]) -> u64 {
        let mut last = self.next_seq;
        for op in ops {
            let rec = NaiveRecord {
                seq: self.next_seq,
                op: op.clone(),
            };
            let line = serde_json::to_string(&rec).unwrap();
            self.writer.write_all(line.as_bytes()).unwrap();
            self.writer.write_all(b"\n").unwrap();
            last = self.next_seq;
            self.next_seq += 1;
        }
        self.writer.flush().unwrap();
        last
    }
}

// An 8-op batch shaped like one transaction's worth of engine traffic:
// inserts carrying the same fat payload the read-path fixture uses.
fn sample_ops(n: usize) -> Vec<LogOp> {
    (0..n)
        .map(|i| LogOp::Insert {
            table: "obs".into(),
            id: i as i64 + 1,
            row: vec![
                format!("t{i}").into(),
                "s0".into(),
                Value::Int(i as i64),
                format!("{i:->96}").into(),
            ],
        })
        .collect()
}

fn bench_wal(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("amp_bench_wal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ops = sample_ops(8);

    // Committing an 8-op batch. `group_commit` is the merged commit the
    // leader performs for everyone queued behind it: one encode pass, one
    // write, one flush. `reference` is how the seed engine durably
    // committed the same 8 ops — every mutation appended (and flushed)
    // individually, since nothing merged commits across callers.
    let mut g = c.benchmark_group("storage/wal_append_8ops");
    g.sample_size(200);
    let wal = Wal::open(dir.join("group.wal")).unwrap();
    g.bench_function("group_commit", |b| {
        b.iter(|| black_box(wal.append(black_box(&ops)).unwrap()))
    });
    let mut naive = NaiveWal {
        writer: std::io::BufWriter::new(std::fs::File::create(dir.join("naive.wal")).unwrap()),
        next_seq: 0,
    };
    g.bench_function("reference", |b| {
        b.iter(|| {
            let mut last = 0;
            for op in black_box(&ops) {
                last = naive.append(std::slice::from_ref(op));
            }
            black_box(last)
        })
    });
    g.finish();

    // concurrent committers: 16 threads x 25 batches per iteration (thread
    // spawn cost amortized over 200 appends). The group-commit leader
    // drains everyone's pre-encoded lines in one write+flush while the
    // reference serializes, clones, and flushes inside its one big lock.
    let mut g = c.benchmark_group("storage/wal_concurrent_16x25");
    g.sample_size(20);
    const BATCHES_PER_THREAD: usize = 25;
    let wal = std::sync::Arc::new(Wal::open(dir.join("group_mt.wal")).unwrap());
    g.bench_function("group_commit", |b| {
        b.iter(|| {
            let mut handles = Vec::new();
            for _ in 0..16 {
                let wal = wal.clone();
                let ops = ops.clone();
                handles.push(std::thread::spawn(move || {
                    for _ in 0..BATCHES_PER_THREAD {
                        black_box(wal.append(&ops).unwrap());
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
        })
    });
    let naive = std::sync::Arc::new(std::sync::Mutex::new(NaiveWal {
        writer: std::io::BufWriter::new(std::fs::File::create(dir.join("naive_mt.wal")).unwrap()),
        next_seq: 0,
    }));
    g.bench_function("reference", |b| {
        b.iter(|| {
            let mut handles = Vec::new();
            for _ in 0..16 {
                let naive = naive.clone();
                let ops = ops.clone();
                handles.push(std::thread::spawn(move || {
                    for _ in 0..BATCHES_PER_THREAD {
                        black_box(naive.lock().unwrap().append(&ops));
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
        })
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An in-memory (durable off) sharded `Db` holding `rows` rows of an
/// indexed table: a unique tag, a 16-value site, a high-cardinality `v`
/// and a 4-value status.
fn write_fixture(rows: i64) -> Db {
    fill_fixture(Db::in_memory(), rows)
}

fn fill_fixture(db: Db, rows: i64) -> Db {
    db.define_role(Role::superuser("admin"));
    let admin = db.connect("admin").unwrap();
    admin
        .create_table(TableSchema::new(
            "obs",
            vec![
                Column::new("tag", ValueType::Text).not_null().unique(),
                Column::new("site", ValueType::Text).indexed().not_null(),
                Column::new("v", ValueType::Int).indexed().not_null(),
                Column::new("status", ValueType::Text).indexed().not_null(),
            ],
        ))
        .unwrap();
    admin
        .transaction(&["obs"], |tx| {
            for i in 0..rows {
                tx.insert(
                    "obs",
                    &[
                        ("tag", format!("t{i}").into()),
                        ("site", format!("s{}", i % 16).into()),
                        ("v", Value::Int((i * 7919) % rows)),
                        (
                            "status",
                            ["QUEUED", "RUNNING", "DONE", "HOLD"][i as usize % 4].into(),
                        ),
                    ],
                )?;
            }
            Ok(())
        })
        .unwrap();
    db
}

/// One committed point update of the status column per iteration: the
/// daemon's workflow-step write. Its cost should not grow with the table.
fn bench_write_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("storage/write");
    g.sample_size(200);
    for (name, rows) in [("point_update_1k", 1_000i64), ("point_update_32k", 32_000)] {
        let db = write_fixture(rows);
        let admin = db.connect("admin").unwrap();
        let mut i = 0i64;
        g.bench_function(name, |b| {
            b.iter(|| {
                i += 1;
                let id = (i * 7_919) % rows + 1;
                let status = ["QUEUED", "RUNNING", "DONE", "HOLD"][(i % 4) as usize];
                admin
                    .update("obs", black_box(id), &[("status", status.into())])
                    .unwrap();
            })
        });
    }
    g.finish();
}

/// Rows per simdb row chunk (the snapshot chunk cache's unit of reuse).
const ROW_CHUNK: i64 = amp_simdb::table::ROWS_PER_CHUNK as i64;

/// One checkpoint (`Db::compact`: snapshot file plus WAL truncation) of a
/// durable 32k-row table per iteration, after the iteration's writes.
/// `cold_32k` first writes one row in every row chunk, so no encoded chunk
/// can be reused: the cost of a first checkpoint. `after_point_update_32k`
/// first writes one row, so one chunk is re-encoded and the rest copied.
/// `clean_32k` writes nothing: the floor every checkpoint pays to rewrite
/// the whole file.
fn bench_compact(c: &mut Criterion) {
    const ROWS: i64 = 32_000;
    let dir = std::env::temp_dir().join(format!("amp_bench_compact_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut g = c.benchmark_group("storage/compact");
    g.sample_size(30);
    let cases = [
        ("cold_32k", Some(ROW_CHUNK)),
        ("after_point_update_32k", Some(ROWS)),
        ("clean_32k", None),
    ];
    for (name, stride) in cases {
        let db = Db::open(
            dir.join(format!("{name}.snap")),
            dir.join(format!("{name}.wal")),
        )
        .unwrap();
        let db = fill_fixture(db, ROWS);
        db.compact().unwrap();
        let admin = db.connect("admin").unwrap();
        let mut i = 0i64;
        g.bench_function(name, |b| {
            b.iter(|| {
                i += 1;
                let status = ["QUEUED", "RUNNING", "DONE", "HOLD"][(i % 4) as usize];
                if let Some(stride) = stride {
                    admin
                        .transaction(&["obs"], |tx| {
                            for first in (1..=ROWS).step_by(stride as usize) {
                                let id = first + (i * 7_919) % stride;
                                tx.update("obs", id, &[("status", status.into())])?;
                            }
                            Ok(())
                        })
                        .unwrap();
                }
                db.compact().unwrap();
            })
        });
    }
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_read_path,
    bench_wal,
    bench_write_path,
    bench_compact
);
criterion_main!(benches);

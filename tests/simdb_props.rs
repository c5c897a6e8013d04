//! Property tests for the database substrate: constraint invariants hold
//! under arbitrary operation sequences, WAL replay reproduces state
//! exactly, query pagination tiles the full result set, and every
//! checkpoint of a durable database writes the bytes a fresh serde
//! encode of the same state would.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use amp::simdb::db::LogOp;
use amp::simdb::{
    Column, Connection, Database, Db, DbError, OnDelete, Op, Query, Role, Row, TableSchema, Value,
    ValueType,
};
use proptest::prelude::*;
use serde::Serialize;

/// A random mutation against the two-table (parent/child) fixture.
#[derive(Debug, Clone)]
enum Action {
    InsertParent { name: u16 },
    InsertChild { parent_ref: u8, v: i8 },
    DeleteParent { pick: u8 },
    DeleteChild { pick: u8 },
    UpdateChild { pick: u8, v: i8 },
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0u16..50).prop_map(|name| Action::InsertParent { name }),
        (any::<u8>(), any::<i8>())
            .prop_map(|(parent_ref, v)| Action::InsertChild { parent_ref, v }),
        any::<u8>().prop_map(|pick| Action::DeleteParent { pick }),
        any::<u8>().prop_map(|pick| Action::DeleteChild { pick }),
        (any::<u8>(), any::<i8>()).prop_map(|(pick, v)| Action::UpdateChild { pick, v }),
    ]
}

fn fixture() -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "parent",
        vec![Column::new("name", ValueType::Text).not_null().unique()],
    ))
    .unwrap();
    db.create_table(TableSchema::new(
        "child",
        vec![
            Column::new("parent_id", ValueType::Int)
                .not_null()
                .references("parent", OnDelete::Cascade)
                .indexed(),
            Column::new("v", ValueType::Int),
        ],
    ))
    .unwrap();
    db
}

fn pick_id(db: &Database, table: &str, pick: u8) -> Option<i64> {
    let rows = db.select(table, &Query::new()).ok()?;
    if rows.is_empty() {
        None
    } else {
        Some(rows[pick as usize % rows.len()].0)
    }
}

fn apply(db: &mut Database, action: &Action, log: &mut Vec<LogOp>) {
    let result: Result<Vec<LogOp>, DbError> = match action {
        Action::InsertParent { name } => db
            .insert("parent", &[("name", format!("p{name}").into())])
            .map(|(_, op)| vec![op]),
        Action::InsertChild { parent_ref, v } => match pick_id(db, "parent", *parent_ref) {
            Some(pid) => db
                .insert(
                    "child",
                    &[("parent_id", Value::Int(pid)), ("v", Value::Int(*v as i64))],
                )
                .map(|(_, op)| vec![op]),
            None => Err(DbError::NoSuchRow {
                table: "parent".into(),
                id: -1,
            }),
        },
        Action::DeleteParent { pick } => match pick_id(db, "parent", *pick) {
            Some(id) => db.delete("parent", id),
            None => Err(DbError::NoSuchRow {
                table: "parent".into(),
                id: -1,
            }),
        },
        Action::DeleteChild { pick } => match pick_id(db, "child", *pick) {
            Some(id) => db.delete("child", id),
            None => Err(DbError::NoSuchRow {
                table: "child".into(),
                id: -1,
            }),
        },
        Action::UpdateChild { pick, v } => match pick_id(db, "child", *pick) {
            Some(id) => db
                .update("child", id, &[("v", Value::Int(*v as i64))])
                .map(|op| vec![op]),
            None => Err(DbError::NoSuchRow {
                table: "child".into(),
                id: -1,
            }),
        },
    };
    if let Ok(ops) = result {
        log.extend(ops);
    }
}

fn invariants_hold(db: &Database) -> Result<(), String> {
    // unique names among parents
    let parents = db
        .select("parent", &Query::new())
        .map_err(|e| e.to_string())?;
    let mut names: Vec<String> = parents
        .iter()
        .map(|(_, r)| r[0].as_text().unwrap().to_string())
        .collect();
    let n = names.len();
    names.sort();
    names.dedup();
    if names.len() != n {
        return Err("duplicate parent names".into());
    }
    // referential integrity: every child's parent exists
    let children = db
        .select("child", &Query::new())
        .map_err(|e| e.to_string())?;
    for (cid, row) in &children {
        let pid = row[0].as_int().unwrap();
        if !parents.iter().any(|(id, _)| id == &pid) {
            return Err(format!("child {cid} dangles to parent {pid}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn invariants_survive_random_operations(actions in proptest::collection::vec(arb_action(), 1..120)) {
        let mut db = fixture();
        let mut log = Vec::new();
        for a in &actions {
            apply(&mut db, a, &mut log);
            invariants_hold(&db).map_err(TestCaseError::fail)?;
        }
    }

    #[test]
    fn wal_replay_reproduces_state(actions in proptest::collection::vec(arb_action(), 1..80)) {
        let mut db = fixture();
        let mut log = Vec::new();
        for a in &actions {
            apply(&mut db, a, &mut log);
        }
        // replay the committed ops into a fresh database
        let mut replayed = fixture();
        for op in &log {
            replayed.apply_log_op(op).map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
        for table in ["parent", "child"] {
            let a = db.select(table, &Query::new()).unwrap();
            let b = replayed.select(table, &Query::new()).unwrap();
            prop_assert_eq!(a, b, "table {} diverged", table);
        }
    }

    #[test]
    fn pagination_tiles_results(n_rows in 0usize..60, page in 1usize..12) {
        let mut db = fixture();
        for i in 0..n_rows {
            db.insert("parent", &[("name", format!("p{i:03}").into())]).unwrap();
        }
        let all = db.select("parent", &Query::new().order_by("name")).unwrap();
        let mut tiled = Vec::new();
        let mut offset = 0;
        loop {
            let chunk = db
                .select("parent", &Query::new().order_by("name").offset(offset).limit(page))
                .unwrap();
            if chunk.is_empty() { break; }
            offset += chunk.len();
            tiled.extend(chunk);
        }
        prop_assert_eq!(all, tiled);
    }

    #[test]
    fn filters_partition_rows(n in 0usize..50, pivot in -50i64..50) {
        let mut db = fixture();
        db.insert("parent", &[("name", "root".into())]).unwrap();
        for i in 0..n {
            db.insert("child", &[("parent_id", Value::Int(1)), ("v", Value::Int(i as i64 - 25))]).unwrap();
        }
        let lt = db.count("child", &Query::new().filter("v", Op::Lt, Value::Int(pivot))).unwrap();
        let ge = db.count("child", &Query::new().filter("v", Op::Ge, Value::Int(pivot))).unwrap();
        prop_assert_eq!(lt + ge, n);
    }
}

/// One step against a durable database.
#[derive(Debug, Clone)]
enum Step {
    /// Insert `n` rows in one transaction (ids ascend, so full row chunks
    /// split at their end).
    Insert {
        t: u8,
        n: u16,
        seed: u8,
    },
    Update {
        t: u8,
        pick: u16,
        seed: u8,
    },
    /// Delete one row: a hole in its chunk.
    Delete {
        t: u8,
        pick: u16,
    },
    /// Delete up to `len` consecutive ids: empties whole chunks.
    DeleteRun {
        t: u8,
        pick: u16,
        len: u16,
    },
    /// Create the next table of `NAMES`, if any is left.
    CreateTable,
    Compact,
    /// Drop the handle and recover from snapshot plus WAL.
    Reopen,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (any::<u8>(), 1u16..300, any::<u8>()).prop_map(|(t, n, seed)| Step::Insert { t, n, seed }),
        (any::<u8>(), any::<u16>(), any::<u8>()).prop_map(|(t, pick, seed)| Step::Update {
            t,
            pick,
            seed
        }),
        (any::<u8>(), any::<u16>()).prop_map(|(t, pick)| Step::Delete { t, pick }),
        (any::<u8>(), any::<u16>(), 1u16..600).prop_map(|(t, pick, len)| Step::DeleteRun {
            t,
            pick,
            len
        }),
        Just(Step::CreateTable),
        Just(Step::Compact),
        Just(Step::Compact),
        Just(Step::Reopen),
    ]
}

/// Table names, created in order: the second one only after the first
/// compaction. Names and cells need JSON escaping.
const NAMES: [&str; 3] = ["t0", "quo\"te \\ ünï", "日本 🌀\n"];

fn cell_row(seed: u8, n: i64) -> Row {
    let texts = [
        "",
        "plain",
        "quo\"te",
        "back\\slash",
        "nl\n tab\t ctl\u{1}",
        "ünï 日本 🌀",
    ];
    vec![
        Value::Text(format!("{}{n}", texts[seed as usize % texts.len()])),
        if seed.is_multiple_of(7) {
            Value::Null
        } else {
            Value::Int(n * seed as i64 - 1000)
        },
        Value::Float(f64::from(seed) / 8.0 - 3.0),
    ]
}

/// The on-disk snapshot layout, encoded by serde: `TableSer` mirrors the
/// engine's load proxy (`schema`, flat `rows`, `next_id`).
#[derive(Serialize)]
struct SnapshotSer {
    covered_seq: Option<u64>,
    applied_seqs: BTreeMap<String, u64>,
    database: DatabaseSer,
}

#[derive(Serialize)]
struct DatabaseSer {
    tables: BTreeMap<String, TableSer>,
}

#[derive(Serialize, Clone)]
struct TableSer {
    schema: TableSchema,
    rows: BTreeMap<i64, Row>,
    next_id: i64,
}

/// What the database should hold, and the WAL numbering it implies: every
/// committed op is one record, so a table's coverage is the seq of the
/// last record that touched it.
#[derive(Default)]
struct Model {
    tables: BTreeMap<String, TableSer>,
    next_seq: u64,
    applied: BTreeMap<String, u64>,
}

impl Model {
    fn logged(&mut self, table: &str, records: u64) {
        self.next_seq += records;
        self.applied.insert(table.to_string(), self.next_seq - 1);
    }

    fn snapshot_bytes(&self) -> Vec<u8> {
        serde_json::to_vec(&SnapshotSer {
            covered_seq: self.next_seq.checked_sub(1),
            applied_seqs: self.applied.clone(),
            database: DatabaseSer {
                tables: self.tables.clone(),
            },
        })
        .unwrap()
    }

    /// The `pick`-th table (wrapping), if any exists.
    fn table(&self, t: u8) -> Option<String> {
        let n = self.tables.len();
        (n > 0).then(|| self.tables.keys().nth(t as usize % n).unwrap().clone())
    }

    /// The `pick`-th row id of `table` (wrapping), if it has rows.
    fn row_id(&self, table: &str, pick: u16) -> Option<i64> {
        let rows = &self.tables[table].rows;
        let n = rows.len();
        (n > 0).then(|| *rows.keys().nth(pick as usize % n).unwrap())
    }
}

fn open(dir: &Path) -> (Db, Connection) {
    let db = Db::open(dir.join("db.snap"), dir.join("db.wal")).unwrap();
    db.define_role(Role::superuser("admin"));
    let conn = db.connect("admin").unwrap();
    (db, conn)
}

fn create(conn: &Connection, model: &mut Model) {
    let Some(name) = NAMES.get(model.tables.len()) else {
        return;
    };
    let schema = TableSchema::new(
        name,
        vec![
            Column::new("s", ValueType::Text).not_null(),
            Column::new("v", ValueType::Int).indexed(),
            Column::new("f", ValueType::Float),
        ],
    );
    conn.create_table(schema.clone()).unwrap();
    let ser = TableSer {
        schema,
        rows: BTreeMap::new(),
        next_id: 1,
    };
    model.tables.insert(name.to_string(), ser);
    model.logged(name, 1);
}

fn apply_step(step: &Step, db: &mut Db, conn: &mut Connection, model: &mut Model, dir: &Path) {
    match *step {
        Step::Insert { t, n, seed } => {
            let Some(name) = model.table(t) else { return };
            let rows: Vec<Row> = (0..n).map(|i| cell_row(seed, i64::from(i))).collect();
            let ids = conn
                .transaction(&[&name], |tx| {
                    rows.iter()
                        .map(|r| tx.insert_row(&name, r.clone()))
                        .collect::<Result<Vec<i64>, DbError>>()
                })
                .unwrap();
            let table = model.tables.get_mut(&name).unwrap();
            for (id, row) in ids.into_iter().zip(rows) {
                table.rows.insert(id, row);
                table.next_id = table.next_id.max(id + 1);
            }
            model.logged(&name, u64::from(n));
        }
        Step::Update { t, pick, seed } => {
            let Some(name) = model.table(t) else { return };
            let Some(id) = model.row_id(&name, pick) else {
                return;
            };
            let row = cell_row(seed, id);
            conn.update_row(&name, id, row.clone()).unwrap();
            model.tables.get_mut(&name).unwrap().rows.insert(id, row);
            model.logged(&name, 1);
        }
        Step::Delete { t, pick } => {
            let Some(name) = model.table(t) else { return };
            let Some(id) = model.row_id(&name, pick) else {
                return;
            };
            conn.delete(&name, id).unwrap();
            model.tables.get_mut(&name).unwrap().rows.remove(&id);
            model.logged(&name, 1);
        }
        Step::DeleteRun { t, pick, len } => {
            let Some(name) = model.table(t) else { return };
            let Some(first) = model.row_id(&name, pick) else {
                return;
            };
            let ids: Vec<i64> = model.tables[&name]
                .rows
                .range(first..first + i64::from(len))
                .map(|(id, _)| *id)
                .collect();
            conn.transaction(&[&name], |tx| {
                ids.iter().try_for_each(|&id| tx.delete(&name, id))
            })
            .unwrap();
            let table = model.tables.get_mut(&name).unwrap();
            for id in &ids {
                table.rows.remove(id);
            }
            model.logged(&name, ids.len() as u64);
        }
        Step::CreateTable => create(conn, model),
        Step::Compact => {
            db.compact().unwrap();
            let written = std::fs::read(dir.join("db.snap")).unwrap();
            assert!(
                written == model.snapshot_bytes(),
                "snapshot differs from the serde encode of the same state"
            );
        }
        Step::Reopen => {
            (*db, *conn) = open(dir);
            for (name, table) in &model.tables {
                let rows: BTreeMap<i64, Row> = conn
                    .select(name, &Query::new())
                    .unwrap()
                    .into_iter()
                    .collect();
                assert!(rows == table.rows, "table {name:?} differs after recovery");
            }
        }
    }
}

fn case_dir(case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amp_snap_props_{}_{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every compaction's snapshot file equals a serde encode of the model
    /// (rows, `next_id`, WAL coverage) byte for byte, whichever row chunks
    /// the chunk cache reused; every recovery reproduces the model's rows.
    #[test]
    fn snapshots_match_serde_encoding_and_recover(steps in proptest::collection::vec(arb_step(), 1..24)) {
        static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = case_dir(CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
        let mut model = Model::default();
        let (mut db, mut conn) = open(&dir);
        // A multi-chunk table before the first compaction; the next table
        // is created after it.
        create(&conn, &mut model);
        let prologue = [
            Step::Insert { t: 0, n: 700, seed: 3 },
            Step::Compact,
            Step::CreateTable,
        ];
        for step in prologue.iter().chain(&steps).chain([&Step::Compact, &Step::Reopen]) {
            apply_step(step, &mut db, &mut conn, &mut model, &dir);
        }
        drop((db, conn));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

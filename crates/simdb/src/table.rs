//! In-memory table storage: rows, primary keys, and per-column indexes.
//!
//! Storage is **copy-on-write** so the MVCC layer ([`crate::shard`]) can
//! publish immutable snapshots cheaply. Rows and every index are
//! [`CowMap`]s: chunked maps whose chunks and spine sit behind `Arc`s.
//! Every row inside a chunk is behind its *own* `Arc`, and each large
//! posting list of an index is a `CowMap` too. `Table::clone` is therefore
//! a *structural* clone: one reference bump per map.
//!
//! A committed write copies what it touches and nothing else:
//! - **rows:** the one 256-row chunk written is re-linked (row *pointers*
//!   copied, no row data) and exactly the row written is materialized;
//! - **indexes:** only columns whose value changed are re-indexed, and
//!   each copies the one value chunk and the one id chunk it edits;
//! - **spines:** each map written also copies its spine of chunk pointers.
//!
//! A point update against a 30k-row archive table copies one row and a
//! few 4 KiB index chunks, not a whole index. The [`Rows::take_copied`]
//! and [`Table::take_copied_index_entries`] accumulators count both per
//! write, so the `simdb_rows_copied_per_write` and
//! `simdb_index_entries_copied_per_write` histograms can watch that
//! invariant in production.

use crate::cow::CowMap;
use crate::error::DbError;
use crate::schema::{Column, TableSchema};
use crate::value::Value;
use serde::Deserialize;
#[cfg(test)]
use serde::Serialize;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

/// A stored row: cell values aligned with `TableSchema::columns` order.
/// The primary key lives in the table's row map, not in the row itself.
pub type Row = Vec<Value>;

/// One chunk of row storage: up to [`ROWS_PER_CHUNK`] `(id, row)` pairs,
/// ascending by id.
pub(crate) type RowChunk = crate::cow::Chunk<i64, Arc<Row>>;

/// Rows per row chunk (256): the unit a write copies and the snapshot
/// encoder re-encodes. Ids inserted in order fill chunk `c` with ids
/// `ROWS_PER_CHUNK * c + 1 ..= ROWS_PER_CHUNK * (c + 1)`.
pub const ROWS_PER_CHUNK: usize = CowMap::<i64, Arc<Row>>::CAP;

/// Copy-on-write row storage: a [`CowMap`] from id to a shared row, so a
/// chunk holds 256 row *pointers*. Iteration order is ascending by id.
///
/// Because each row sits behind its own `Arc`, copying a shared chunk
/// bumps reference counts instead of cloning row data; the only row ever
/// materialized per mutation is the one written.
#[derive(Debug, Default)]
pub(crate) struct Rows {
    map: CowMap<i64, Arc<Row>>,
    /// Rows materialized (allocated/deep-copied) by mutations since the
    /// last [`Self::take_copied`] — the write-amplification numerator.
    copied: u64,
}

impl Clone for Rows {
    fn clone(&self) -> Self {
        // Structural clone: one spine `Arc` bump. The amplification counter
        // is a property of *this* mutation stream, so a fresh copy (a
        // transaction write-buffer, a snapshot) starts its own count.
        Rows {
            map: self.map.clone(),
            copied: 0,
        }
    }
}

impl Rows {
    /// Bulk-build from rows in ascending id order.
    fn from_sorted(rows: impl IntoIterator<Item = (i64, Arc<Row>)>) -> Rows {
        Rows {
            map: CowMap::from_sorted(rows),
            copied: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn get(&self, id: i64) -> Option<&Row> {
        self.map.get(&id).map(|r| r.as_ref())
    }

    /// The shared handle for `id`, for callers that need to keep the old
    /// row alive (update's unindex step) without deep-copying it.
    pub fn get_arc(&self, id: i64) -> Option<Arc<Row>> {
        self.map.get(&id).cloned()
    }

    pub fn contains_key(&self, id: i64) -> bool {
        self.get(id).is_some()
    }

    /// Insert or replace. A shared destination chunk is re-linked (`Arc`
    /// bumps per resident row, no data copies); exactly one row — the one
    /// written — is materialized and counted.
    pub fn insert(&mut self, id: i64, row: Arc<Row>) -> Option<Arc<Row>> {
        self.copied += 1;
        self.map.insert(id, row)
    }

    /// Remove; re-links only the containing chunk if shared.
    pub fn remove(&mut self, id: i64) -> Option<Arc<Row>> {
        self.map.remove(&id)
    }

    pub fn iter(&self) -> impl Iterator<Item = (i64, &Row)> {
        self.map.iter().map(|(id, r)| (*id, r.as_ref()))
    }

    /// The row chunks, ascending by id: the snapshot encoder's unit of
    /// reuse. A write replaces only the chunk it touches, so every other
    /// chunk keeps its `Arc` (and address).
    pub fn chunks(&self) -> impl Iterator<Item = &Arc<RowChunk>> {
        self.map.chunks()
    }

    /// Drain the materialized-rows counter. The commit path calls this once
    /// per write transaction and feeds the `simdb_rows_copied_per_write`
    /// histogram; a healthy engine reports ≈ rows touched, and any return
    /// to chunk-granularity copying shows up as a 256x jump.
    pub fn take_copied(&mut self) -> u64 {
        std::mem::take(&mut self.copied)
    }
}

/// One column's posting list: the ascending ids of the rows holding one
/// value. A single id — every entry of a unique column, most foreign-key
/// values — is held inline; longer lists are a [`CowMap`] id set, so
/// adding one id to a 5,000-id list copies one chunk, not 5,000 ids.
#[derive(Debug, Clone)]
pub(crate) enum Postings {
    One(i64),
    Many(CowMap<i64, ()>),
}

impl Postings {
    /// Build from ascending ids (at least one).
    fn from_sorted(mut ids: impl ExactSizeIterator<Item = i64>) -> Postings {
        match ids.len() {
            1 => Postings::One(ids.next().expect("one id")),
            _ => Postings::Many(CowMap::from_sorted(ids.map(|id| (id, ())))),
        }
    }

    /// The ids, ascending (reversible).
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = i64> + '_ {
        let (one, many) = match self {
            Postings::One(id) => (Some(*id), None),
            Postings::Many(m) => (None, Some(m.iter().map(|(id, _)| *id))),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }

    /// Add `id`; returns the entries copied to do it.
    fn insert(&mut self, id: i64) -> u64 {
        match self {
            Postings::One(other) if *other == id => 0,
            Postings::One(other) => {
                let (a, b) = (id.min(*other), id.max(*other));
                *self = Postings::from_sorted([a, b].into_iter());
                0
            }
            Postings::Many(m) => {
                m.insert(id, ());
                m.take_copied()
            }
        }
    }

    /// Remove `id`; returns the entries copied to do it and whether the
    /// list is now empty.
    fn remove(&mut self, id: i64) -> (u64, bool) {
        match self {
            Postings::One(other) => (0, *other == id),
            Postings::Many(m) => {
                m.remove(&id);
                let copied = m.take_copied();
                if m.len() == 1 {
                    let last = m.iter().next().map(|(id, _)| *id).expect("one id");
                    *self = Postings::One(last);
                }
                (copied, false)
            }
        }
    }
}

/// One column's index: value → postings, in value order. NULL cells are
/// never indexed, matching SQL comparison semantics. The same map serves
/// unique enforcement, point probes, range scans and index-ordered
/// iteration.
#[derive(Debug, Clone, Default)]
pub(crate) struct Index(CowMap<Value, Postings>);

impl Index {
    pub fn get(&self, value: &Value) -> Option<&Postings> {
        self.0.get(value)
    }

    /// Value groups in ascending value order (reversible).
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (&Value, &Postings)> {
        self.0.iter()
    }

    fn add(&mut self, value: &Value, id: i64) {
        let copied = match self.0.get_mut(value) {
            Some(p) => p.insert(id),
            None => {
                self.0.insert(value.clone(), Postings::One(id));
                0
            }
        };
        self.0.add_copied(copied);
    }

    fn remove(&mut self, value: &Value, id: i64) {
        let Some(p) = self.0.get_mut(value) else {
            return;
        };
        let (copied, empty) = p.remove(id);
        self.0.add_copied(copied);
        if empty {
            self.0.remove(value);
        }
    }
}

/// A single table: schema, row storage, and indexes.
///
/// Only schema, rows and `next_id` are persisted (see [`TableSer`]);
/// indexes are rebuilt on load. Cloning shares all row chunks and index
/// chunks structurally — see the module docs for the copy-on-write
/// granularity.
#[derive(Debug, Clone)]
pub struct Table {
    pub schema: TableSchema,
    pub(crate) rows: Rows,
    pub(crate) next_id: i64,
    /// By column position: the index of every unique, indexed, or FK
    /// column; `None` for plain columns.
    pub(crate) indexes: Vec<Option<Index>>,
}

/// The on-disk layout of one table in a snapshot: `schema`, a flat `rows`
/// map from id to row, and `next_id`; indexes are rebuilt on load. Only
/// loading goes through this proxy. Snapshots are written by
/// [`crate::wal::Snapshot`]'s direct encoder, which emits the same bytes
/// row chunk by row chunk (asserted against this proxy by test).
#[derive(Deserialize)]
#[cfg_attr(test, derive(Serialize))]
pub(crate) struct TableSer {
    pub(crate) schema: TableSchema,
    pub(crate) rows: BTreeMap<i64, Row>,
    pub(crate) next_id: i64,
}

impl Deserialize for Table {
    fn from_content(c: &serde::Content) -> Result<Table, serde::DeError> {
        let ser = TableSer::from_content(c)?;
        Ok(Table {
            schema: ser.schema,
            rows: Rows::from_sorted(ser.rows.into_iter().map(|(id, r)| (id, Arc::new(r)))),
            next_id: ser.next_id,
            indexes: Vec::new(),
        })
    }
}

impl Table {
    pub fn new(schema: TableSchema) -> Result<Self, DbError> {
        schema.validate()?;
        let indexes = schema
            .columns
            .iter()
            .map(|c| c.is_indexed().then(Index::default))
            .collect();
        Ok(Table {
            schema,
            rows: Rows::default(),
            next_id: 1,
            indexes,
        })
    }

    /// Rebuild all indexes from row storage (after deserialization): one
    /// pass over the shared rows collects each indexed column's
    /// `(value, id)` cells, which are sorted and bulk-loaded.
    pub fn rebuild_indexes(&mut self) -> Result<(), DbError> {
        let mut cells: Vec<Option<Vec<(&Value, i64)>>> = self
            .schema
            .columns
            .iter()
            .map(|c| c.is_indexed().then(Vec::new))
            .collect();
        for (id, row) in self.rows.iter() {
            self.check_cells(row)?;
            for (cells, val) in cells.iter_mut().zip(row) {
                if let Some(cells) = cells.as_mut().filter(|_| !val.is_null()) {
                    cells.push((val, id));
                }
            }
        }
        let mut indexes = Vec::with_capacity(cells.len());
        for (col, cells) in self.schema.columns.iter().zip(cells) {
            let Some(mut cells) = cells else {
                indexes.push(None);
                continue;
            };
            // Rows iterate by ascending id and the sort is stable, so each
            // value's ids come out ascending.
            cells.sort_by(|a, b| a.0.total_cmp(b.0));
            let mut entries = Vec::new();
            for group in cells.chunk_by(|a, b| a.0 == b.0) {
                if col.unique && group.len() > 1 {
                    return Err(self.unique_violation(col, group[0].0));
                }
                let ids = group.iter().map(|&(_, id)| id);
                entries.push((group[0].0.clone(), Postings::from_sorted(ids)));
            }
            indexes.push(Some(Index(CowMap::from_sorted(entries))));
        }
        self.indexes = indexes;
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn get(&self, id: i64) -> Option<&Row> {
        self.rows.get(id)
    }

    pub fn iter(&self) -> impl Iterator<Item = (i64, &Row)> {
        self.rows.iter()
    }

    fn index(&self, col: usize) -> Option<&Index> {
        self.indexes.get(col)?.as_ref()
    }

    fn unique_violation(&self, col: &Column, value: &Value) -> DbError {
        DbError::UniqueViolation {
            table: self.schema.name.clone(),
            column: col.name.clone(),
            value: value.clone(),
        }
    }

    /// Validate arity and per-column constraints for a candidate row.
    fn check_cells(&self, row: &Row) -> Result<(), DbError> {
        if row.len() != self.schema.columns.len() {
            return Err(DbError::Schema(format!(
                "table {}: row arity {} != schema arity {}",
                self.schema.name,
                row.len(),
                self.schema.columns.len()
            )));
        }
        for (col, val) in self.schema.columns.iter().zip(row.iter()) {
            col.check_value(&self.schema.name, val)?;
        }
        Ok(())
    }

    /// Validate a candidate row, including uniqueness (checked through
    /// the column's index). For an update, `old` is the row it replaces:
    /// a unique value it keeps is its own and needs no probe.
    fn check_row(&self, row: &Row, old: Option<&Row>) -> Result<(), DbError> {
        self.check_cells(row)?;
        for (i, (col, val)) in self.schema.columns.iter().zip(row.iter()).enumerate() {
            if !col.unique || val.is_null() || old.is_some_and(|o| o[i] == *val) {
                continue;
            }
            if self.index(i).and_then(|ix| ix.get(val)).is_some() {
                return Err(self.unique_violation(col, val));
            }
        }
        Ok(())
    }

    fn index_row(&mut self, id: i64, row: &Row) {
        for (ix, val) in self.indexes.iter_mut().zip(row) {
            if let Some(ix) = ix.as_mut().filter(|_| !val.is_null()) {
                ix.add(val, id);
            }
        }
    }

    fn unindex_row(&mut self, id: i64, row: &Row) {
        for (ix, val) in self.indexes.iter_mut().zip(row) {
            if let Some(ix) = ix.as_mut().filter(|_| !val.is_null()) {
                ix.remove(val, id);
            }
        }
    }

    /// Insert a row, assigning a fresh primary key. FK existence is checked
    /// by the database layer before calling this.
    pub fn insert(&mut self, row: Row) -> Result<i64, DbError> {
        self.check_row(&row, None)?;
        let id = self.next_id;
        self.next_id += 1;
        self.index_row(id, &row);
        self.rows.insert(id, Arc::new(row));
        Ok(id)
    }

    /// Insert a row with an explicit id (WAL replay / snapshot restore).
    pub fn insert_with_id(&mut self, id: i64, row: Row) -> Result<(), DbError> {
        if self.rows.contains_key(id) {
            return Err(DbError::Schema(format!(
                "table {}: duplicate explicit id {}",
                self.schema.name, id
            )));
        }
        self.check_row(&row, None)?;
        self.index_row(id, &row);
        self.rows.insert(id, Arc::new(row));
        if id >= self.next_id {
            self.next_id = id + 1;
        }
        Ok(())
    }

    /// Replace an entire row. Only columns whose value changed move in
    /// their index, so a status update touches the status index alone.
    pub fn update(&mut self, id: i64, row: Row) -> Result<(), DbError> {
        let old = self.rows.get_arc(id).ok_or_else(|| DbError::NoSuchRow {
            table: self.schema.name.clone(),
            id,
        })?;
        self.check_row(&row, Some(&old))?;
        for ((ix, was), now) in self.indexes.iter_mut().zip(old.iter()).zip(&row) {
            let Some(ix) = ix.as_mut().filter(|_| was != now) else {
                continue;
            };
            if !was.is_null() {
                ix.remove(was, id);
            }
            if !now.is_null() {
                ix.add(now, id);
            }
        }
        self.rows.insert(id, Arc::new(row));
        Ok(())
    }

    /// Delete a row, returning it. FK restrictions are handled by the
    /// database layer.
    pub fn delete(&mut self, id: i64) -> Result<Row, DbError> {
        let row = self.rows.remove(id).ok_or_else(|| DbError::NoSuchRow {
            table: self.schema.name.clone(),
            id,
        })?;
        self.unindex_row(id, &row);
        Ok(Arc::try_unwrap(row).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Drain the write-amplification counter: rows materialized by
    /// mutations since the last call. See [`Rows::take_copied`].
    pub fn take_copied_rows(&mut self) -> u64 {
        self.rows.take_copied()
    }

    /// Drain the index write-amplification counter: index entries
    /// deep-copied out of shared chunks since the last call.
    pub fn take_copied_index_entries(&mut self) -> u64 {
        self.indexes
            .iter_mut()
            .flatten()
            .map(|ix| ix.0.take_copied())
            .sum()
    }

    /// Lookup by unique column value.
    pub fn find_unique(&self, col: usize, value: &Value) -> Option<i64> {
        if !self.schema.columns.get(col)?.unique {
            return None;
        }
        self.index(col)?.get(value)?.iter().next()
    }

    /// Lookup by indexed column value: the matching row ids, ascending.
    /// `None` means no index on col.
    pub fn find_indexed(&self, col: usize, value: &Value) -> Option<Vec<i64>> {
        let ix = self.index(col)?;
        Some(
            ix.get(value)
                .map(|p| p.iter().collect())
                .unwrap_or_default(),
        )
    }

    /// True if `col` has an index (unique, indexed, or FK).
    pub fn has_ordered_index(&self, col: usize) -> bool {
        self.index(col).is_some()
    }

    /// Row ids whose `col` value falls within the bounds, ascending by
    /// `(value, id)`. `None` means `col` has no index. NULL cells are
    /// never indexed, matching SQL comparison semantics.
    pub fn range_indexed(
        &self,
        col: usize,
        lower: Bound<&Value>,
        upper: Bound<&Value>,
    ) -> Option<Vec<i64>> {
        let ix = self.index(col)?;
        Some(
            ix.0.range(lower, upper)
                .flat_map(|(_, p)| p.iter())
                .collect(),
        )
    }

    /// The index over `col` for index-ordered scans (value-sorted groups
    /// of ascending row ids), if one exists.
    pub(crate) fn ordered_index(&self, col: usize) -> Option<&Index> {
        self.index(col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::ValueType;

    fn table() -> Table {
        Table::new(TableSchema::new(
            "u",
            vec![
                Column::new("name", ValueType::Text).not_null().unique(),
                Column::new("age", ValueType::Int).indexed(),
            ],
        ))
        .unwrap()
    }

    #[test]
    fn insert_assigns_sequential_ids() {
        let mut t = table();
        let a = t.insert(vec!["a".into(), Value::Int(1)]).unwrap();
        let b = t.insert(vec!["b".into(), Value::Int(2)]).unwrap();
        assert_eq!((a, b), (1, 2));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn unique_enforced_and_released_on_delete() {
        let mut t = table();
        let id = t.insert(vec!["a".into(), Value::Null]).unwrap();
        assert!(matches!(
            t.insert(vec!["a".into(), Value::Null]),
            Err(DbError::UniqueViolation { .. })
        ));
        t.delete(id).unwrap();
        assert!(t.insert(vec!["a".into(), Value::Null]).is_ok());
    }

    #[test]
    fn unique_allows_self_update() {
        let mut t = table();
        let id = t.insert(vec!["a".into(), Value::Int(1)]).unwrap();
        t.update(id, vec!["a".into(), Value::Int(2)]).unwrap();
        assert_eq!(t.get(id).unwrap()[1], Value::Int(2));
    }

    #[test]
    fn update_reindexes() {
        let mut t = table();
        let id = t.insert(vec!["a".into(), Value::Int(1)]).unwrap();
        t.update(id, vec!["b".into(), Value::Int(1)]).unwrap();
        // old name must be free again
        assert!(t.insert(vec!["a".into(), Value::Int(9)]).is_ok());
        let name_col = 0;
        assert_eq!(t.find_unique(name_col, &"b".into()), Some(id));
        assert_eq!(t.find_unique(name_col, &"zzz".into()), None);
    }

    #[test]
    fn secondary_index_tracks_rows() {
        let mut t = table();
        let a = t.insert(vec!["a".into(), Value::Int(30)]).unwrap();
        let b = t.insert(vec!["b".into(), Value::Int(30)]).unwrap();
        let hits = t.find_indexed(1, &Value::Int(30)).unwrap();
        assert_eq!(hits, [a, b]);
        t.delete(a).unwrap();
        assert_eq!(t.find_indexed(1, &Value::Int(30)).unwrap(), [b]);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = table();
        assert!(matches!(
            t.insert(vec!["a".into()]),
            Err(DbError::Schema(_))
        ));
    }

    /// One index as `(value, ascending ids)` groups.
    type Groups = Vec<(Value, Vec<i64>)>;

    /// Every index's groups, by column.
    fn dump(t: &Table) -> Vec<Option<Groups>> {
        t.indexes
            .iter()
            .map(|ix| {
                ix.as_ref().map(|ix| {
                    ix.iter()
                        .map(|(v, p)| (v.clone(), p.iter().collect()))
                        .collect()
                })
            })
            .collect()
    }

    #[test]
    fn rebuild_indexes_matches_incremental() {
        let mut t = table();
        for i in 0..300 {
            t.insert(vec![format!("n{i}").into(), Value::Int(i % 7)])
                .unwrap();
        }
        for id in (1..300).step_by(3) {
            t.update(id, vec![format!("m{id}").into(), Value::Int(id % 5)])
                .unwrap();
        }
        for id in (2..300).step_by(4) {
            t.delete(id).unwrap();
        }
        let mut rebuilt = t.clone();
        rebuilt.indexes.clear();
        rebuilt.rebuild_indexes().unwrap();
        assert_eq!(dump(&rebuilt), dump(&t));
        assert_eq!(rebuilt.find_unique(0, &"m4".into()), Some(4));
    }

    /// The 4 KiB chunk sizes the docs and the write-amplification test
    /// quote.
    #[test]
    fn chunk_capacities_match_the_docs() {
        assert_eq!(ROWS_PER_CHUNK, 256);
        assert_eq!(CowMap::<i64, ()>::CAP, 512);
        assert_eq!(CowMap::<Value, Postings>::CAP, 85);
    }

    #[test]
    fn rebuild_rejects_duplicate_unique_values() {
        let mut t = table();
        t.insert(vec!["a".into(), Value::Null]).unwrap();
        t.rows.insert(9, Arc::new(vec!["a".into(), Value::Null]));
        assert!(matches!(
            t.rebuild_indexes(),
            Err(DbError::UniqueViolation { .. })
        ));
    }

    #[test]
    fn update_copies_only_the_changed_columns_chunks() {
        let mut t = table();
        for i in 0..5_000 {
            t.insert(vec![format!("n{i}").into(), Value::Int(i % 2)])
                .unwrap();
        }
        let pinned = t.clone();
        let mut buffer = t.clone();
        buffer.take_copied_index_entries();
        buffer.update(10, vec!["n9".into(), Value::Int(0)]).unwrap();
        // Two id chunks (old and new posting) plus the two-key value chunk;
        // the untouched unique index copies nothing.
        let copied = buffer.take_copied_index_entries();
        let bound = 2 * CowMap::<i64, ()>::CAP + 2;
        assert!(copied as usize <= bound, "copied {copied} index entries");
        assert_eq!(dump(&pinned), dump(&t));
        assert_eq!(pinned.find_indexed(1, &Value::Int(1)).unwrap().len(), 2_500);
        assert_eq!(buffer.find_indexed(1, &Value::Int(1)).unwrap().len(), 2_499);
    }

    #[test]
    fn ordered_index_serves_ranges() {
        let mut t = table();
        let mut ids = Vec::new();
        for age in [30, 10, 20, 30, 40] {
            ids.push(
                t.insert(vec![format!("u{}", ids.len()).into(), Value::Int(age)])
                    .unwrap(),
            );
        }
        // [10, 30) in (value, id) order
        assert_eq!(
            t.range_indexed(
                1,
                Bound::Included(&Value::Int(10)),
                Bound::Excluded(&Value::Int(30))
            )
            .unwrap(),
            vec![ids[1], ids[2]]
        );
        // duplicate key lists ascending ids
        assert_eq!(
            t.range_indexed(
                1,
                Bound::Included(&Value::Int(30)),
                Bound::Included(&Value::Int(30))
            )
            .unwrap(),
            vec![ids[0], ids[3]]
        );
        t.delete(ids[0]).unwrap();
        assert_eq!(
            t.range_indexed(1, Bound::Included(&Value::Int(30)), Bound::Unbounded)
                .unwrap(),
            vec![ids[3], ids[4]]
        );
        // no ordered index on a plain column
        let plain = Table::new(TableSchema::new(
            "p",
            vec![Column::new("v", ValueType::Int)],
        ))
        .unwrap();
        assert!(plain
            .range_indexed(0, Bound::Unbounded, Bound::Unbounded)
            .is_none());
        assert!(!plain.has_ordered_index(0));
        assert!(t.has_ordered_index(1));
    }

    #[test]
    fn insert_with_id_advances_counter() {
        let mut t = table();
        t.insert_with_id(10, vec!["a".into(), Value::Null]).unwrap();
        let next = t.insert(vec!["b".into(), Value::Null]).unwrap();
        assert_eq!(next, 11);
        assert!(t.insert_with_id(10, vec!["c".into(), Value::Null]).is_err());
    }
}

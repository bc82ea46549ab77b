//! Row storage with hash indexes, copy-on-write at row and posting grain.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::Arc;

use crate::ast::{ColumnDef, ColumnType};
use crate::error::SqlError;
use crate::shard::EqKey;
use crate::value::{Row, Value};

/// Row slots per storage page. A page is a block of row pointers: the
/// first write to it after a snapshot copies its 256 pointers and the one
/// row it changes, never the page-mates' values.
const PAGE_ROWS: usize = 256;

/// Mean distinct keys per bucket beyond which an index doubles its bucket
/// directory. The first write after a snapshot copies the directory and
/// one bucket of posting pointers, so the load trades one against the
/// other: at 100 000 keys this is a directory of 4 096 pointers and a
/// bucket of about two dozen. Only the postings whose row ids change are
/// copied whole.
const BUCKET_LOAD: usize = 32;

/// Page `p` holds row ids `p * PAGE_ROWS ..`, each row behind its own
/// `Arc` and tombstoned on delete; it is shorter than [`PAGE_ROWS`] while
/// its higher slots were never filled.
type Page = Vec<Option<Arc<[Value]>>>;

/// One distinct key of an index and the row ids holding it, in the order
/// they came to hold it.
#[derive(Debug, Clone)]
struct Posting {
    hash: u64,
    key: Value,
    rids: Vec<usize>,
}

/// Postings whose key hashes select this bucket, each behind its own
/// `Arc`, sorted by hash so a probe is a binary search over the one hash it
/// already computed to get here.
type Bucket = Vec<Arc<Posting>>;

/// Hash index over one column: a power-of-two directory of buckets, the
/// low bits of a key's hash choosing the bucket.
///
/// Keys are matched as SQL `=` matches them, by [`EqKey`]: `1`, `1.0` and
/// `TRUE` are one key, and a key that equals nothing — `NULL`, or a NaN —
/// is never stored and never matches, so a probe pins exactly the rows a
/// scan's `col = key` keeps.
#[derive(Debug, Clone)]
struct Index {
    column: usize,
    hasher: RandomState,
    /// Distinct keys over all buckets.
    keys: usize,
    buckets: Arc<Vec<Arc<Bucket>>>,
}

impl Index {
    fn new(column: usize) -> Self {
        Index {
            column,
            hasher: RandomState::new(),
            keys: 0,
            buckets: Arc::new(vec![Arc::default()]),
        }
    }

    /// `key`'s hash, or `None` for a key `=` never matches.
    fn hash(&self, key: &Value) -> Option<u64> {
        EqKey::of(key).map(|key| self.hasher.hash_one(key))
    }

    fn slot(&self, hash: u64) -> usize {
        hash as usize & (self.buckets.len() - 1)
    }

    /// Position of `key` in `bucket`, or where its posting would go.
    fn find(bucket: &Bucket, hash: u64, key: &Value) -> Result<usize, usize> {
        let start = bucket.partition_point(|p| p.hash < hash);
        bucket[start..]
            .iter()
            .take_while(|p| p.hash == hash)
            .position(|p| p.key.sql_eq(key))
            .map(|i| start + i)
            .ok_or(start)
    }

    fn get(&self, key: &Value) -> &[usize] {
        let Some(hash) = self.hash(key) else {
            return &[];
        };
        let bucket = &self.buckets[self.slot(hash)];
        match Self::find(bucket, hash, key) {
            Ok(i) => &bucket[i].rids,
            Err(_) => &[],
        }
    }

    fn bucket_mut(&mut self, hash: u64) -> &mut Bucket {
        let slot = self.slot(hash);
        Arc::make_mut(&mut Arc::make_mut(&mut self.buckets)[slot])
    }

    fn add(&mut self, key: Value, rid: usize) {
        let Some(hash) = self.hash(&key) else {
            return;
        };
        let bucket = self.bucket_mut(hash);
        match Self::find(bucket, hash, &key) {
            Ok(i) => Arc::make_mut(&mut bucket[i]).rids.push(rid),
            Err(i) => {
                let rids = vec![rid];
                bucket.insert(i, Arc::new(Posting { hash, key, rids }));
                self.keys += 1;
                if self.keys > BUCKET_LOAD * self.buckets.len() {
                    self.double();
                }
            }
        }
    }

    fn remove(&mut self, key: &Value, rid: usize) {
        let Some(hash) = self.hash(key) else {
            return;
        };
        let bucket = self.bucket_mut(hash);
        if let Ok(i) = Self::find(bucket, hash, key) {
            let rids = &mut Arc::make_mut(&mut bucket[i]).rids;
            rids.retain(|&r| r != rid);
            if rids.is_empty() {
                bucket.remove(i);
                self.keys -= 1;
            }
        }
    }

    /// Splits every bucket in two on the next hash bit. A split keeps
    /// hash order and moves posting pointers; no posting is copied.
    fn double(&mut self) {
        let old = std::mem::take(Arc::make_mut(&mut self.buckets));
        // A power of two: as a mask it is the hash bit the split reads.
        let bit = old.len();
        let mut next = vec![Bucket::new(); 2 * bit];
        for (slot, bucket) in old.into_iter().enumerate() {
            for posting in Arc::unwrap_or_clone(bucket) {
                next[slot + (posting.hash as usize & bit)].push(posting);
            }
        }
        self.buckets = Arc::new(next.into_iter().map(Arc::new).collect());
    }
}

/// A stored table: schema, row slots (tombstoned on delete) and hash indexes.
///
/// Every field sits behind an [`Arc`], so cloning a table — and therefore
/// snapshotting a whole [`crate::Database`] — is reference-count bumps with
/// no allocation. Each row sits behind its own `Arc` in a page of 256 row
/// pointers, each page behind an `Arc` under an `Arc`'d page directory;
/// each index is an `Arc`'d directory of `Arc`'d hash buckets of `Arc`'d
/// postings. The first mutation after a snapshot copies (`Arc::make_mut`)
/// pointers down to what it changes: the page directory, the one page's
/// pointers and the one row it writes and, per index over a column it
/// writes, the bucket directory, the one or two buckets' pointers and the
/// one or two postings whose row ids change. A delete copies no row. A
/// write costs O(rows touched), not O(table), and copies no row or posting
/// it does not change. A reader holding an old clone keeps a consistent view that
/// shares every untouched row and posting with the live table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name as declared.
    pub name: Arc<str>,
    /// Column schema in declaration order.
    pub columns: Arc<[ColumnDef]>,
    /// Page directory; the last page is never empty (a page is added only
    /// to be written), so the directory alone gives the next row id.
    pages: Arc<Vec<Arc<Page>>>,
    live: usize,
    /// One index per indexed column. The primary key is always indexed.
    indexes: Arc<Vec<Index>>,
}

impl Table {
    /// Creates an empty table; the primary-key column (if any) is indexed.
    pub fn new(name: String, columns: Vec<ColumnDef>) -> Self {
        let pk = columns.iter().position(|c| c.primary_key);
        Table {
            name: name.into(),
            columns: columns.into(),
            pages: Arc::default(),
            live: 0,
            indexes: Arc::new(pk.map(Index::new).into_iter().collect()),
        }
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table has no live rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Position of a column by name (case-insensitive).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Declared column names.
    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }

    /// Adds a secondary hash index over `column`; idempotent.
    pub fn create_index(&mut self, column: &str) -> Result<(), SqlError> {
        let ci = self
            .column_index(column)
            .ok_or_else(|| SqlError::new(format!("no column {column} in {}", self.name)))?;
        if self.has_index(ci) {
            return Ok(());
        }
        let mut index = Index::new(ci);
        for (rid, row) in self.scan() {
            index.add(row[ci].clone(), rid);
        }
        Arc::make_mut(&mut self.indexes).push(index);
        Ok(())
    }

    /// Position in `indexes` of the index over `column`, if it has one.
    fn index_of(&self, column: usize) -> Option<usize> {
        self.indexes.iter().position(|ix| ix.column == column)
    }

    /// Whether `column` (by index) has a hash index.
    pub fn has_index(&self, column: usize) -> bool {
        self.index_of(column).is_some()
    }

    /// Coerces `v` to the declared type of column `ci` where harmless
    /// (int ↔ float); other mismatches pass through unchanged since the
    /// engine is dynamically typed like MySQL.
    fn coerce(&self, ci: usize, v: Value) -> Value {
        match (self.columns[ci].ty, &v) {
            (ColumnType::Float, Value::Int(i)) => Value::Float(*i as f64),
            (ColumnType::Int, Value::Float(f)) => Value::Int(*f as i64),
            _ => v,
        }
    }

    /// Inserts a full-width row, maintaining indexes.
    pub fn insert(&mut self, row: Row) -> Result<(), SqlError> {
        self.insert_at(self.next_rowid(), row)
    }

    /// Whether a row of `width` values is as wide as the table.
    pub(crate) fn check_arity(&self, width: usize) -> Result<(), SqlError> {
        if width != self.columns.len() {
            return Err(SqlError::new(format!(
                "insert into {}: expected {} values, got {width}",
                self.name,
                self.columns.len()
            )));
        }
        Ok(())
    }

    /// Everything [`Table::insert_at`] checks before it changes anything,
    /// so a multi-row `INSERT` can validate all of its rows up front.
    pub(crate) fn check_insert(&self, rid: usize, row: &Row) -> Result<(), SqlError> {
        self.check_arity(row.len())?;
        if self.row(rid).is_some() {
            return Err(SqlError::new(format!(
                "insert into {}: row id {rid} already occupied",
                self.name
            )));
        }
        Ok(())
    }

    /// Inserts a full-width row at an explicit row id, maintaining indexes.
    ///
    /// Slots between the current end and `rid` are left as tombstones.
    /// This is what keeps scan order stable across a sharded fleet: the
    /// shard router assigns each table's rows a fleet-wide id sequence,
    /// each shard stores its rows at those (sparse) ids, and a k-way
    /// merge by row id reconstructs the exact scan order a single server
    /// would produce.
    pub fn insert_at(&mut self, rid: usize, row: Row) -> Result<(), SqlError> {
        self.check_insert(rid, &row)?;
        let row: Arc<[Value]> = row
            .into_iter()
            .enumerate()
            .map(|(ci, v)| self.coerce(ci, v))
            .collect();
        for index in Arc::make_mut(&mut self.indexes) {
            index.add(row[index.column].clone(), rid);
        }
        let pages = Arc::make_mut(&mut self.pages);
        let (p, slot) = (rid / PAGE_ROWS, rid % PAGE_ROWS);
        if p >= pages.len() {
            pages.resize_with(p + 1, Arc::default);
        }
        let page = Arc::make_mut(&mut pages[p]);
        if slot >= page.len() {
            page.resize(slot + 1, None);
        }
        page[slot] = Some(row);
        self.live += 1;
        Ok(())
    }

    /// The next row id a plain [`Table::insert`] would use.
    pub fn next_rowid(&self) -> usize {
        self.pages
            .last()
            .map_or(0, |last| (self.pages.len() - 1) * PAGE_ROWS + last.len())
    }

    /// Iterates `(row_id, row)` over live rows, in ascending row id.
    pub fn scan(&self) -> impl Iterator<Item = (usize, &[Value])> {
        self.pages.iter().enumerate().flat_map(|(p, page)| {
            page.iter()
                .enumerate()
                .filter_map(move |(slot, r)| r.as_deref().map(|row| (p * PAGE_ROWS + slot, row)))
        })
    }

    /// Row ids whose indexed column `ci` equals `key` (requires an index).
    pub fn probe(&self, ci: usize, key: &Value) -> Option<&[usize]> {
        self.index_of(ci).map(|i| self.indexes[i].get(key))
    }

    /// Returns a live row by id.
    pub fn row(&self, rid: usize) -> Option<&[Value]> {
        self.pages
            .get(rid / PAGE_ROWS)?
            .get(rid % PAGE_ROWS)?
            .as_deref()
    }

    /// The slot of live row `rid`, unsharing its page's pointers (not its
    /// rows); `None` — with nothing copied — when there is no such row.
    fn slot_mut(&mut self, rid: usize) -> Option<&mut Option<Arc<[Value]>>> {
        self.row(rid)?;
        let page = &mut Arc::make_mut(&mut self.pages)[rid / PAGE_ROWS];
        Arc::make_mut(page).get_mut(rid % PAGE_ROWS)
    }

    /// Overwrites column `ci` of row `rid`, maintaining indexes.
    pub fn update_cell(&mut self, rid: usize, ci: usize, value: Value) {
        let value = self.coerce(ci, value);
        let index = self.index_of(ci);
        // Unshares this one row; a later cell of the same row finds it
        // unshared already.
        let Some(row) = self
            .slot_mut(rid)
            .and_then(Option::as_mut)
            .map(Arc::make_mut)
        else {
            return;
        };
        let Some(i) = index else {
            row[ci] = value;
            return;
        };
        let old = std::mem::replace(&mut row[ci], value.clone());
        let index = &mut Arc::make_mut(&mut self.indexes)[i];
        index.remove(&old, rid);
        index.add(value, rid);
    }

    /// Tombstones row `rid`, maintaining indexes.
    pub fn delete(&mut self, rid: usize) {
        let Some(row) = self.slot_mut(rid).and_then(Option::take) else {
            return;
        };
        self.live -= 1;
        for index in Arc::make_mut(&mut self.indexes) {
            index.remove(&row[index.column], rid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn sample() -> Table {
        let mut t = Table::new(
            "t".into(),
            vec![
                ColumnDef {
                    name: "id".into(),
                    ty: ColumnType::Int,
                    primary_key: true,
                },
                ColumnDef {
                    name: "name".into(),
                    ty: ColumnType::Text,
                    primary_key: false,
                },
            ],
        );
        t.insert(vec![Value::Int(1), Value::Str("a".into())])
            .unwrap();
        t.insert(vec![Value::Int(2), Value::Str("b".into())])
            .unwrap();
        t
    }

    #[test]
    fn pk_index_probe() {
        let t = sample();
        assert_eq!(t.probe(0, &Value::Int(2)), Some(&[1usize][..]));
        assert_eq!(t.probe(0, &Value::Int(99)), Some(&[][..]));
        assert!(t.probe(1, &Value::Str("a".into())).is_none());
    }

    #[test]
    fn secondary_index_after_insert() {
        let mut t = sample();
        t.create_index("name").unwrap();
        assert_eq!(t.probe(1, &Value::Str("b".into())), Some(&[1usize][..]));
        t.insert(vec![Value::Int(3), Value::Str("b".into())])
            .unwrap();
        assert_eq!(t.probe(1, &Value::Str("b".into())), Some(&[1usize, 2][..]));
    }

    #[test]
    fn delete_updates_index_and_len() {
        let mut t = sample();
        t.delete(0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.probe(0, &Value::Int(1)), Some(&[][..]));
        assert_eq!(t.scan().count(), 1);
    }

    #[test]
    fn update_cell_moves_index_entry() {
        let mut t = sample();
        t.update_cell(0, 0, Value::Int(10));
        assert_eq!(t.probe(0, &Value::Int(1)), Some(&[][..]));
        assert_eq!(t.probe(0, &Value::Int(10)), Some(&[0usize][..]));
    }

    #[test]
    fn wrong_arity_rejected() {
        let mut t = sample();
        assert!(t.insert(vec![Value::Int(9)]).is_err());
    }

    #[test]
    fn int_to_float_coercion() {
        let mut t = Table::new(
            "f".into(),
            vec![ColumnDef {
                name: "x".into(),
                ty: ColumnType::Float,
                primary_key: false,
            }],
        );
        t.insert(vec![Value::Int(3)]).unwrap();
        assert_eq!(t.row(0).unwrap()[0], Value::Float(3.0));
    }

    /// The storage this module replaced, kept as the reference the paged
    /// table is checked against: one row vector, one map per index.
    #[derive(Clone, Default)]
    struct Model {
        rows: Vec<Option<Row>>,
        indexes: HashMap<usize, HashMap<Value, Vec<usize>>>,
    }

    impl Model {
        fn live(&self, rid: usize) -> bool {
            self.rows.get(rid).is_some_and(Option::is_some)
        }

        fn insert_at(&mut self, rid: usize, row: Row) -> bool {
            if self.live(rid) {
                return false;
            }
            for (ci, index) in &mut self.indexes {
                index.entry(row[*ci].clone()).or_default().push(rid);
            }
            if rid >= self.rows.len() {
                self.rows.resize(rid + 1, None);
            }
            self.rows[rid] = Some(row);
            true
        }

        fn unindex(index: &mut HashMap<Value, Vec<usize>>, key: &Value, rid: usize) {
            let ids = index.get_mut(key).expect("indexed key");
            ids.retain(|&r| r != rid);
            if ids.is_empty() {
                index.remove(key);
            }
        }

        fn update_cell(&mut self, rid: usize, ci: usize, value: Value) {
            if !self.live(rid) {
                return;
            }
            let row = self.rows[rid].as_mut().expect("live row");
            let old = std::mem::replace(&mut row[ci], value.clone());
            if let Some(index) = self.indexes.get_mut(&ci) {
                Self::unindex(index, &old, rid);
                index.entry(value).or_default().push(rid);
            }
        }

        fn delete(&mut self, rid: usize) {
            if !self.live(rid) {
                return;
            }
            let row = self.rows[rid].take().expect("live row");
            for (ci, index) in &mut self.indexes {
                Self::unindex(index, &row[*ci], rid);
            }
        }

        fn create_index(&mut self, ci: usize) {
            if self.indexes.contains_key(&ci) {
                return;
            }
            let mut index: HashMap<Value, Vec<usize>> = HashMap::new();
            for (rid, row) in self.rows.iter().enumerate() {
                if let Some(row) = row {
                    index.entry(row[ci].clone()).or_default().push(rid);
                }
            }
            self.indexes.insert(ci, index);
        }
    }

    /// Everything the table's read surface says, against the model;
    /// `keys[ci]` holds every value any step ever used in column `ci`,
    /// still in the table or not.
    fn assert_matches(t: &Table, m: &Model, keys: &[Vec<Value>], at: &str) {
        let scanned: Vec<(usize, &[Value])> = t.scan().collect();
        let expected: Vec<(usize, &[Value])> = m
            .rows
            .iter()
            .enumerate()
            .filter_map(|(rid, r)| r.as_deref().map(|row| (rid, row)))
            .collect();
        assert_eq!(scanned, expected, "scan {at}");
        assert_eq!(t.len(), expected.len(), "len {at}");
        assert_eq!(t.next_rowid(), m.rows.len(), "next_rowid {at}");
        for rid in 0..m.rows.len() + PAGE_ROWS + 1 {
            assert_eq!(
                t.row(rid),
                m.rows.get(rid).and_then(Option::as_deref),
                "row {rid} {at}"
            );
        }
        assert_eq!(keys.len(), t.columns.len());
        for (ci, keys) in keys.iter().enumerate() {
            assert_eq!(
                t.has_index(ci),
                m.indexes.contains_key(&ci),
                "has_index {ci} {at}"
            );
            for key in keys {
                let expected = m
                    .indexes
                    .get(&ci)
                    .map(|index| index.get(key).map_or(&[][..], Vec::as_slice));
                assert_eq!(t.probe(ci, key), expected, "probe {ci} {key} {at}");
            }
        }
    }

    fn model_columns() -> Vec<ColumnDef> {
        [
            ("id", ColumnType::Int, true),
            ("a", ColumnType::Int, false),
            ("b", ColumnType::Text, false),
            ("c", ColumnType::Int, false),
        ]
        .into_iter()
        .map(|(name, ty, primary_key)| ColumnDef {
            name: name.into(),
            ty,
            primary_key,
        })
        .collect()
    }

    /// Seeded source of cell values that remembers, per column, every
    /// value it ever handed out, so probes can ask for all of them at
    /// every step.
    struct Cells {
        rng: rand::rngs::StdRng,
        next_id: i64,
        keys: Vec<Vec<Value>>,
    }

    impl Cells {
        fn below(&mut self, n: usize) -> usize {
            use rand::RngExt;
            self.rng.random_range(0..n)
        }

        fn value(&mut self, ci: usize) -> Value {
            let v = match ci {
                0 => {
                    self.next_id += 1;
                    Value::Int(self.next_id)
                }
                1 => Value::Int(self.below(40) as i64),
                2 => Value::Str(format!("s{}", self.below(200))),
                _ => Value::Int(self.below(5) as i64),
            };
            if !self.keys[ci].contains(&v) {
                self.keys[ci].push(v.clone());
            }
            v
        }

        fn row(&mut self) -> Row {
            (0..4).map(|ci| self.value(ci)).collect()
        }
    }

    #[test]
    fn random_stream_matches_the_vec_and_hashmap_model() {
        use rand::SeedableRng;

        for seed in [1, 2] {
            let mut cells = Cells {
                rng: rand::rngs::StdRng::seed_from_u64(seed),
                next_id: 0,
                keys: vec![vec![Value::Null, Value::Int(-1)]; 4],
            };
            let mut t = Table::new("m".into(), model_columns());
            let mut m = Model::default();
            m.create_index(0);
            let mut pinned: Vec<(Table, Model, usize)> = Vec::new();

            // The ids either side of the first page boundary, inserted
            // sparsely before anything else fills the page.
            for rid in [PAGE_ROWS - 1, PAGE_ROWS, PAGE_ROWS + 1] {
                let r = cells.row();
                assert!(m.insert_at(rid, r.clone()));
                t.insert_at(rid, r).unwrap();
            }

            for step in 0..1000 {
                // A row id: mostly any slot ever allotted or just past
                // them, sometimes one beside a page boundary.
                let end = m.rows.len();
                let rid = match cells.below(8) {
                    0 => PAGE_ROWS * (1 + cells.below(2)) - 1 + cells.below(3),
                    _ => cells.below(end + 2),
                };
                match cells.below(100) {
                    0..=39 => {
                        let r = cells.row();
                        assert!(m.insert_at(end, r.clone()));
                        t.insert(r).unwrap();
                    }
                    40..=45 => {
                        // Sparse: past the end, now and then by more than
                        // a page, leaving a page with no row at all.
                        let gap = [1, 2, 3, 7, PAGE_ROWS + 44][cells.below(5)];
                        let r = cells.row();
                        assert!(m.insert_at(end + gap, r.clone()));
                        t.insert_at(end + gap, r).unwrap();
                    }
                    46..=51 => {
                        // Anywhere: a tombstone takes the row, a live slot
                        // refuses it and changes nothing.
                        let r = cells.row();
                        assert_eq!(t.insert_at(rid, r.clone()).is_ok(), m.insert_at(rid, r));
                    }
                    52..=76 => {
                        let ci = cells.below(4);
                        let v = cells.value(ci);
                        m.update_cell(rid, ci, v.clone());
                        t.update_cell(rid, ci, v);
                    }
                    77..=93 => {
                        m.delete(rid);
                        t.delete(rid);
                    }
                    94..=95 => {
                        let ci = 1 + cells.below(2);
                        m.create_index(ci);
                        t.create_index(&t.columns[ci].name.clone()).unwrap();
                    }
                    _ => {
                        if pinned.len() == 2 {
                            pinned.swap_remove(cells.below(2));
                        }
                        pinned.push((t.clone(), m.clone(), step));
                    }
                }
                let at = format!("after step {step} of seed {seed}");
                assert_matches(&t, &m, &cells.keys, &at);
                for (pt, pm, taken) in &pinned {
                    let at = format!("pinned at step {taken}, {at}");
                    assert_matches(pt, pm, &cells.keys, &at);
                }
            }
            assert!(t.pages.len() > 2, "the stream crossed page boundaries");
            // The primary key outgrew one bucket; `a`, with 40 keys if it
            // got its index, never does.
            assert!(t.indexes[0].buckets.len() > 2, "the directory doubled");
        }
    }

    /// Row pages of `a`, and buckets of each of its indexes, that `b` does
    /// not share by pointer: what the writes between the two copied.
    fn unshared(a: &Table, b: &Table) -> (usize, Vec<usize>) {
        fn count<T>(a: &[Arc<T>], b: &[Arc<T>]) -> usize {
            (0..a.len())
                .filter(|&i| !b.get(i).is_some_and(|other| Arc::ptr_eq(&a[i], other)))
                .count()
        }
        let buckets = a
            .indexes
            .iter()
            .zip(b.indexes.iter())
            .map(|(x, y)| count(&x.buckets, &y.buckets));
        (count(&a.pages, &b.pages), buckets.collect())
    }

    /// Rows of `a` that `b` does not hold by the same pointer at the same
    /// row id, and per index, postings of `a` that `b` does not hold by
    /// pointer anywhere: what the writes between the two copied at row
    /// and posting grain. A row `a` no longer holds counts for nothing.
    fn unshared_rows_and_postings(a: &Table, b: &Table) -> (usize, Vec<usize>) {
        let rows = a
            .scan()
            .filter(|&(rid, row)| !b.row(rid).is_some_and(|old| std::ptr::eq(row, old)))
            .count();
        let postings = a.indexes.iter().zip(b.indexes.iter()).map(|(x, y)| {
            let held: std::collections::HashSet<*const Posting> = y
                .buckets
                .iter()
                .flat_map(|bucket| bucket.iter().map(Arc::as_ptr))
                .collect();
            x.buckets
                .iter()
                .flat_map(|bucket| bucket.iter())
                .filter(|p| !held.contains(&Arc::as_ptr(p)))
                .count()
        });
        (rows, postings.collect())
    }

    #[test]
    fn a_point_update_copies_one_page_at_any_table_size() {
        for rows in [1_000, 20_000, 100_000] {
            let mut db = crate::Database::new();
            db.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT, k INT)")
                .unwrap();
            db.execute("CREATE INDEX ON t (k)").unwrap();
            for from in (0..rows).step_by(1_000) {
                let tuples: Vec<String> = (from..from + 1_000)
                    .map(|i| format!("({i}, 0, {})", i % 500))
                    .collect();
                db.execute(&format!("INSERT INTO t VALUES {}", tuples.join(", ")))
                    .unwrap();
            }
            let id = rows / 2 + 77;

            let before = db.snapshot();
            db.execute(&format!("UPDATE t SET a = 1 WHERE id = {id}"))
                .unwrap();
            let (pages, buckets) = unshared(db.table("t").unwrap(), before.table("t").unwrap());
            assert_eq!((pages, buckets), (1, vec![0, 0]), "unindexed, {rows} rows");
            // Of that page, only the written row's pointer is new: its 255
            // page-mates are the snapshot's rows.
            let (t, old) = (db.table("t").unwrap(), before.table("t").unwrap());
            assert_eq!(
                unshared_rows_and_postings(t, old),
                (1, vec![0, 0]),
                "unindexed, {rows} rows"
            );
            let page = id / PAGE_ROWS;
            for rid in (page * PAGE_ROWS..(page + 1) * PAGE_ROWS).filter(|&rid| rid != id) {
                assert!(
                    std::ptr::eq(t.row(rid).unwrap(), old.row(rid).unwrap()),
                    "row {rid}"
                );
            }

            // An indexed column: the bucket the old key leaves and the one
            // the new key joins, in that column's index alone.
            let before = db.snapshot();
            db.execute(&format!("UPDATE t SET k = 3 WHERE id = {id}"))
                .unwrap();
            let (pages, buckets) = unshared(db.table("t").unwrap(), before.table("t").unwrap());
            assert_eq!(pages, 1, "indexed, {rows} rows");
            assert_eq!(buckets[0], 0, "the primary key did not change");
            assert!((1..=2).contains(&buckets[1]), "{buckets:?} at {rows} rows");
            // The key the row leaves and the key it joins: at most their two
            // postings are copied, every other posting of the bucket stays
            // shared.
            let (unshared_rows, postings) =
                unshared_rows_and_postings(db.table("t").unwrap(), before.table("t").unwrap());
            assert_eq!(unshared_rows, 1, "indexed, {rows} rows");
            assert_eq!(postings[0], 0, "the primary key did not change");
            assert!(
                (1..=2).contains(&postings[1]),
                "{postings:?} at {rows} rows"
            );

            // A delete copies the page's pointers and drops one; it copies
            // no row.
            let before = db.snapshot();
            db.execute(&format!("DELETE FROM t WHERE id = {}", id + 1))
                .unwrap();
            let (t, old) = (db.table("t").unwrap(), before.table("t").unwrap());
            assert_eq!(unshared(t, old).0, 1, "delete, {rows} rows");
            let (unshared_rows, postings) = unshared_rows_and_postings(t, old);
            assert_eq!(unshared_rows, 0, "delete, {rows} rows");
            assert!(
                postings.iter().all(|&p| p <= 1),
                "{postings:?} at {rows} rows"
            );
            assert_eq!(t.len() + 1, old.len());
        }
    }
}

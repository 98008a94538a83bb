//! Tabulated tables: the one sorted-cell table every tabulation produces.
//!
//! A [`Tabulation`] is a spec, the schema its keys decode under, and its
//! nonzero cells, strictly ascending by packed key. What a cell holds is
//! its [`CellAggregate`]: [`CellStats`] for a level marginal
//! ([`Marginal`]), [`FlowStats`](crate::FlowStats) for job flows
//! ([`FlowMarginal`](crate::FlowMarginal)). The aggregate's digest words
//! define the table's [`content digest`](Tabulation::content_digest),
//! and a persisted truth stores each cell as its key followed by those
//! same words.

use crate::attr::{Attr, MarginalSpec, WorkerAttr};
use crate::cell::{CellKey, CellSchema};
use serde::{get_field, DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// What one cell of a [`Tabulation`] holds.
pub trait CellAggregate: Copy {
    /// Number of digest words per cell.
    const WORDS: usize;

    /// The cell's `WORDS` digest words, in order.
    fn words(&self) -> impl IntoIterator<Item = u64>;

    /// The cell whose digest words are `words` (exactly `WORDS` of them).
    fn from_words(words: &[u64]) -> Self;

    /// Refuse stats that no tabulation produces.
    fn check(&self) -> Result<(), String>;

    /// Refuse a table of these cells that no tabulation produces as a
    /// whole: a spec the aggregate is never tabulated under, or cells whose
    /// derived total overflows.
    fn check_table(spec: &MarginalSpec, cells: &[(CellKey, Self)]) -> Result<(), String>;
}

/// Per-cell statistics of a marginal query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellStats {
    /// The true count `q_V(D, v)`.
    pub count: u64,
    /// Number of distinct establishments contributing to the cell.
    pub establishments: u32,
    /// `x_v`: the largest contribution of any single establishment — the
    /// driver of smooth sensitivity (Lemma 8.5).
    pub max_establishment: u32,
}

impl CellStats {
    /// Fold one establishment's contribution into the cell.
    #[inline]
    pub(crate) fn absorb(&mut self, contribution: u32) {
        self.count += contribution as u64;
        self.establishments += 1;
        self.max_establishment = self.max_establishment.max(contribution);
    }
}

/// Two words: the count, then the establishment count in the low and
/// `x_v` in the high half.
impl CellAggregate for CellStats {
    const WORDS: usize = 2;

    fn words(&self) -> impl IntoIterator<Item = u64> {
        [
            self.count,
            (self.establishments as u64) | ((self.max_establishment as u64) << 32),
        ]
    }

    fn from_words(words: &[u64]) -> Self {
        Self {
            count: words[0],
            establishments: words[1] as u32,
            max_establishment: (words[1] >> 32) as u32,
        }
    }

    /// A stored cell has a nonzero count and at least one contributing
    /// establishment, and neither the establishment count nor `x_v` can
    /// exceed the count.
    fn check(&self) -> Result<(), String> {
        if self.count == 0 {
            return Err("zero-count cell".into());
        }
        if self.establishments == 0
            || self.max_establishment == 0
            || self.establishments as u64 > self.count
            || self.max_establishment as u64 > self.count
        {
            return Err(format!(
                "impossible cell stats (count {}, establishments {}, max_establishment {})",
                self.count, self.establishments, self.max_establishment
            ));
        }
        Ok(())
    }

    /// The counts sum to the [`total`](Marginal::total), which must fit a
    /// `u64`.
    fn check_table(_: &MarginalSpec, cells: &[(CellKey, Self)]) -> Result<(), String> {
        cells
            .iter()
            .try_fold(0u64, |total, (_, stats)| total.checked_add(stats.count))
            .map(|_| ())
            .ok_or_else(|| "marginal total overflows u64".into())
    }
}

/// A materialized tabulation: nonzero cells with their aggregates, plus
/// the spec and schema needed to decode keys.
///
/// Only nonzero cells are stored. LODES publications release sparse tables
/// (zeros are implicit and, under the current SDL, exact); the evaluation
/// follows the paper in computing error over the published (nonzero) cells.
///
/// Cells are held in a `Vec` strictly ascending by packed key — the
/// output shape the tabulation engine's sorted-run merge produces
/// directly. Point lookups ([`cell`](Self::cell)) are a binary search;
/// merges, scans, and serialization walk contiguous memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tabulation<S> {
    spec: MarginalSpec,
    schema: CellSchema,
    /// Nonzero cells, strictly ascending by key.
    cells: Vec<(CellKey, S)>,
}

/// A level marginal: each cell's count and `x_v`.
pub type Marginal = Tabulation<CellStats>;

impl<S: CellAggregate> Tabulation<S> {
    /// Assemble a table from an already-sorted cell run (the tabulation
    /// engine's merge output).
    ///
    /// # Panics
    /// Debug-asserts that keys are strictly ascending.
    pub(crate) fn from_sorted(
        spec: MarginalSpec,
        schema: CellSchema,
        cells: Vec<(CellKey, S)>,
    ) -> Self {
        debug_assert!(
            cells.windows(2).all(|w| w[0].0 < w[1].0),
            "cell run must be strictly sorted by key"
        );
        Self {
            spec,
            schema,
            cells,
        }
    }

    /// Assemble a table from cells read back from outside the program (a
    /// persisted truth in either of its encodings), re-validating every
    /// invariant the tabulation engine guarantees by construction: the
    /// table passes its aggregate's
    /// [`check_table`](CellAggregate::check_table), the schema's
    /// attributes are the spec's, the cell run is strictly ascending by
    /// key, every key lies inside the schema's domain, and every cell
    /// passes its aggregate's [`check`](CellAggregate::check). A snapshot
    /// violating any of these is refused — a persisted truth is untrusted
    /// input until it proves itself.
    pub fn from_cells(
        spec: MarginalSpec,
        schema: CellSchema,
        cells: Vec<(CellKey, S)>,
    ) -> Result<Self, DeError> {
        S::check_table(&spec, &cells).map_err(DeError::new)?;
        let spec_attrs: Vec<Attr> = spec.attrs().collect();
        if schema.attrs() != spec_attrs.as_slice() {
            return Err(DeError::new("schema attributes disagree with the spec"));
        }
        if !cells.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(DeError::new("cells are not strictly sorted by key"));
        }
        let domain = schema.domain_size();
        for (key, stats) in &cells {
            if key.0 >= domain {
                return Err(DeError::new(format!(
                    "cell key {} outside schema domain {domain}",
                    key.0
                )));
            }
            stats
                .check()
                .map_err(|e| DeError::new(format!("cell {}: {e}", key.0)))?;
        }
        Ok(Self {
            spec,
            schema,
            cells,
        })
    }

    /// The query specification.
    pub fn spec(&self) -> &MarginalSpec {
        &self.spec
    }

    /// The key schema.
    pub fn schema(&self) -> &CellSchema {
        &self.schema
    }

    /// Number of nonzero cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// The aggregate of one cell; `None` when the cell is zero.
    pub fn cell(&self, key: CellKey) -> Option<&S> {
        self.cells
            .binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| &self.cells[i].1)
    }

    /// Iterate over nonzero cells in key order.
    pub fn iter(&self) -> impl Iterator<Item = (CellKey, &S)> {
        self.cells.iter().map(|(k, v)| (*k, v))
    }

    /// A stable FNV-1a digest over every cell — its key, then its
    /// aggregate's digest words — folded in key order, prefixed by the
    /// cell count. Two tables with equal digests (and equal specs) carry
    /// bit-identical published statistics; a persistent truth store
    /// records this digest next to the stored cells and refuses loads
    /// that no longer reproduce it.
    pub fn content_digest(&self) -> u64 {
        let mut hash = crate::Fnv1a::new();
        hash.word(self.cells.len() as u64);
        for (key, stats) in &self.cells {
            hash.word(key.0);
            for word in stats.words() {
                hash.word(word);
            }
        }
        hash.finish()
    }
}

impl Marginal {
    /// Sum of all cell counts (equals the number of jobs matching the
    /// marginal's implicit universe).
    pub fn total(&self) -> u64 {
        self.cells.iter().map(|(_, c)| c.count).sum()
    }

    /// The count vector in key order (for error metrics).
    pub fn counts(&self) -> Vec<u64> {
        self.cells.iter().map(|(_, c)| c.count).collect()
    }

    /// Restrict to cells where each listed worker attribute takes the given
    /// value, then *project away* the worker attributes — yielding, e.g.,
    /// the "females with a bachelor's degree" slice of a
    /// place×naics×ownership×sex×education marginal, keyed like the
    /// corresponding place×naics×ownership marginal (used by Ranking 2).
    ///
    /// # Panics
    /// Panics if a listed attribute is not part of this marginal.
    pub fn slice_worker_attrs(&self, fixed: &[(WorkerAttr, u32)]) -> BTreeMap<CellKey, u64> {
        let positions: Vec<(usize, u32)> = fixed
            .iter()
            .map(|&(attr, value)| {
                let pos = self
                    .schema
                    .position_of(Attr::Worker(attr))
                    .unwrap_or_else(|| panic!("attribute {attr:?} not in marginal"));
                (pos, value)
            })
            .collect();
        // Positions of attributes to keep (everything except *all* worker
        // attributes; slicing fixes some and sums out any others).
        let keep: Vec<usize> = self
            .schema
            .attrs()
            .iter()
            .enumerate()
            .filter(|(_, a)| matches!(a, Attr::Workplace(_)))
            .map(|(i, _)| i)
            .collect();

        let mut out: BTreeMap<CellKey, u64> = BTreeMap::new();
        for &(key, ref stats) in &self.cells {
            if positions
                .iter()
                .all(|&(pos, val)| self.schema.value_of(key, pos) == val)
            {
                // Re-encode using only the kept (workplace) positions,
                // preserving their relative order — mixed-radix packing over
                // kept attributes, matching the layout `CellSchema` would
                // produce for the workplace-only spec.
                let mut packed: u64 = 0;
                for &pos in &keep {
                    packed = packed * self.schema.cardinality_of(pos)
                        + self.schema.value_of(key, pos) as u64;
                }
                *out.entry(CellKey(packed)).or_insert(0) += stats.count;
            }
        }
        out
    }
}

/// The stable serialized form of a table: spec, schema (attributes +
/// cardinalities), and the sorted cell run. Deserializing goes through
/// [`Tabulation::from_cells`], so a snapshot is validated on load.
impl<S: Serialize> Serialize for Tabulation<S> {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("spec".to_string(), self.spec.to_value()),
            ("schema".to_string(), self.schema.to_value()),
            ("cells".to_string(), self.cells.to_value()),
        ])
    }
}

impl<S: CellAggregate + Deserialize> Deserialize for Tabulation<S> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Self::from_cells(
            MarginalSpec::from_value(get_field(v, "spec")?)?,
            CellSchema::from_value(get_field(v, "schema")?)?,
            Vec::<(CellKey, S)>::from_value(get_field(v, "cells")?)?,
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::attr::{MarginalSpec, WorkerAttr, WorkplaceAttr};
    use crate::engine::compute_marginal;
    use lodes::{Generator, GeneratorConfig};

    #[test]
    fn totals_and_cells_consistent() {
        let d = Generator::new(GeneratorConfig::test_small(1)).generate();
        let spec = MarginalSpec::new(vec![WorkplaceAttr::Naics], vec![]);
        let m = compute_marginal(&d, &spec);
        assert_eq!(m.total() as usize, d.num_jobs());
        assert!(m.num_cells() <= 20);
        for (_, stats) in m.iter() {
            assert!(stats.count > 0, "only nonzero cells stored");
            assert!(stats.max_establishment as u64 <= stats.count);
            assert!(stats.establishments > 0);
        }
    }

    #[test]
    fn serde_round_trip_is_bit_identical() {
        let d = Generator::new(GeneratorConfig::test_small(3)).generate();
        let spec = MarginalSpec::new(
            vec![WorkplaceAttr::Naics, WorkplaceAttr::Ownership],
            vec![WorkerAttr::Sex],
        );
        let m = compute_marginal(&d, &spec);
        let json = serde_json::to_string(&m).unwrap();
        let back: super::Marginal = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.content_digest(), m.content_digest());
        assert_eq!(back.total(), m.total());
        assert_eq!(back.schema().domain_size(), m.schema().domain_size());
    }

    #[test]
    fn deserialization_refuses_invalid_snapshots() {
        let d = Generator::new(GeneratorConfig::test_small(3)).generate();
        let spec = MarginalSpec::new(vec![WorkplaceAttr::Naics], vec![]);
        let m = compute_marginal(&d, &spec);
        let json = serde_json::to_string(&m).unwrap();
        // A zero-count cell can never be stored.
        let (key, stats) = m.iter().next().expect("nonempty marginal");
        let tampered = json.replace(
            &format!("[{},{{\"count\":{}", key.0, stats.count),
            &format!("[{},{{\"count\":0", key.0),
        );
        assert_ne!(tampered, json);
        assert!(serde_json::from_str::<super::Marginal>(&tampered).is_err());
        // A cell key outside the schema's domain is refused.
        let domain = m.schema().domain_size();
        let tampered = json.replacen(&format!("[{}", key.0), &format!("[{domain}"), 1);
        assert_ne!(tampered, json);
        assert!(serde_json::from_str::<super::Marginal>(&tampered).is_err());
        // Impossible stats are refused: x_v can never exceed the count.
        let tampered = json.replacen(
            &format!("\"max_establishment\":{}", stats.max_establishment),
            &format!("\"max_establishment\":{}", stats.count + 1),
            1,
        );
        assert_ne!(tampered, json);
        assert!(serde_json::from_str::<super::Marginal>(&tampered).is_err());
    }

    #[test]
    fn content_digest_tracks_cell_changes() {
        let d = Generator::new(GeneratorConfig::test_small(5)).generate();
        let a = compute_marginal(&d, &MarginalSpec::new(vec![WorkplaceAttr::Naics], vec![]));
        let b = compute_marginal(&d, &MarginalSpec::new(vec![WorkplaceAttr::County], vec![]));
        assert_ne!(a.content_digest(), b.content_digest());
        let a2 = compute_marginal(&d, &MarginalSpec::new(vec![WorkplaceAttr::Naics], vec![]));
        assert_eq!(a.content_digest(), a2.content_digest());
    }

    #[test]
    fn slice_extracts_fixed_worker_values() {
        let d = Generator::new(GeneratorConfig::test_small(2)).generate();
        let full = compute_marginal(
            &d,
            &MarginalSpec::new(vec![WorkplaceAttr::Naics], vec![WorkerAttr::Sex]),
        );
        let females = full.slice_worker_attrs(&[(WorkerAttr::Sex, 1)]);
        let males = full.slice_worker_attrs(&[(WorkerAttr::Sex, 0)]);
        let f_total: u64 = females.values().sum();
        let m_total: u64 = males.values().sum();
        assert_eq!(f_total + m_total, full.total());
    }
}

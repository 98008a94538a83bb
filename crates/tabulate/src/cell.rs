//! Packed cell keys for marginal cells.
//!
//! A cell of `q_V(D)` is a tuple of attribute values. For tabulation speed
//! the tuple is mixed-radix packed into a single `u64` according to a
//! [`CellSchema`] derived from the marginal spec and the dataset's domain
//! cardinalities. Packing is bijective, so keys decode back to value
//! tuples for display and for slicing marginals by worker attributes.

use crate::attr::{Attr, MarginalSpec};
use lodes::Dataset;
use serde::{get_field, DeError, Deserialize, JsonWriter, Serialize, Value};

/// A packed marginal-cell identifier. Ordering follows the packed integer,
/// which is lexicographic in the spec's attribute order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellKey(pub u64);

/// Encoder/decoder between attribute-value tuples and packed [`CellKey`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSchema {
    attrs: Vec<Attr>,
    cardinalities: Vec<u64>,
    /// Strides for mixed-radix packing; `strides[i]` multiplies value `i`.
    strides: Vec<u64>,
    domain_size: u64,
}

impl CellSchema {
    /// Build the schema for `spec` against `dataset`.
    ///
    /// # Panics
    /// Panics if the full cross-product domain exceeds `u64` range (cannot
    /// happen for realistic specs: even block × all worker attributes is
    /// far below 2⁶⁴).
    pub fn new(spec: &MarginalSpec, dataset: &Dataset) -> Self {
        let attrs: Vec<Attr> = spec.attrs().collect();
        let cardinalities: Vec<u64> = attrs
            .iter()
            .map(|a| match a {
                Attr::Workplace(w) => w.cardinality(dataset) as u64,
                Attr::Worker(w) => w.cardinality() as u64,
            })
            .collect();
        Self::from_parts(attrs, cardinalities)
    }

    /// Build a schema from an attribute list and matching cardinalities
    /// (used by [`crate::DatasetIndex`], which snapshots the dataset's
    /// domain cardinalities at build time).
    ///
    /// # Panics
    /// Panics if the cross-product domain exceeds `u64` range.
    pub(crate) fn from_parts(attrs: Vec<Attr>, cardinalities: Vec<u64>) -> Self {
        debug_assert_eq!(attrs.len(), cardinalities.len());
        let mut strides = vec![0u64; attrs.len()];
        let mut acc: u64 = 1;
        for i in (0..attrs.len()).rev() {
            strides[i] = acc;
            acc = acc
                .checked_mul(cardinalities[i])
                .expect("marginal domain exceeds u64");
        }
        Self {
            attrs,
            cardinalities,
            strides,
            domain_size: acc,
        }
    }

    /// The attributes in key order.
    pub fn attrs(&self) -> &[Attr] {
        &self.attrs
    }

    /// Total number of cells in the (mostly empty) cross-product domain.
    pub fn domain_size(&self) -> u64 {
        self.domain_size.max(1)
    }

    /// Pack a tuple of attribute values (in key order) into a key.
    #[inline]
    pub fn encode(&self, values: &[u32]) -> CellKey {
        debug_assert_eq!(values.len(), self.attrs.len());
        let mut key = 0u64;
        for (i, &v) in values.iter().enumerate() {
            debug_assert!(
                (v as u64) < self.cardinalities[i],
                "value {v} out of range for attribute {:?}",
                self.attrs[i]
            );
            key += v as u64 * self.strides[i];
        }
        CellKey(key)
    }

    /// Unpack a key into its attribute values.
    pub fn decode(&self, key: CellKey) -> Vec<u32> {
        let mut rest = key.0;
        let mut out = Vec::with_capacity(self.attrs.len());
        for i in 0..self.attrs.len() {
            out.push((rest / self.strides[i]) as u32);
            rest %= self.strides[i];
        }
        out
    }

    /// The value of one attribute inside a packed key.
    #[inline]
    pub fn value_of(&self, key: CellKey, attr_index: usize) -> u32 {
        ((key.0 / self.strides[attr_index]) % self.cardinalities[attr_index]) as u32
    }

    /// Mixed-radix stride of the attribute at `attr_index` — the packed
    /// weight of one unit of that attribute's value inside a key. Exposed
    /// so the columnar tabulation engine can accumulate keys column-wise
    /// instead of materializing value tuples for [`encode`](Self::encode).
    #[inline]
    pub fn stride_of(&self, attr_index: usize) -> u64 {
        self.strides[attr_index]
    }

    /// Position of an attribute in the key layout, if present.
    pub fn position_of(&self, attr: Attr) -> Option<usize> {
        self.attrs.iter().position(|&a| a == attr)
    }

    /// Domain cardinality of the attribute at `attr_index`.
    pub fn cardinality_of(&self, attr_index: usize) -> u64 {
        self.cardinalities[attr_index]
    }
}

/// A schema serializes as its attribute list and cardinalities; strides and
/// domain size are derived, never trusted from a snapshot.
impl Serialize for CellSchema {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("attrs", &self.attrs);
        w.field("cardinalities", &self.cardinalities);
        w.end_object();
    }
}

impl Deserialize for CellSchema {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let attrs = Vec::<Attr>::from_value(get_field(v, "attrs")?)?;
        let cardinalities = Vec::<u64>::from_value(get_field(v, "cardinalities")?)?;
        if attrs.len() != cardinalities.len() {
            return Err(DeError::new(format!(
                "schema has {} attributes but {} cardinalities",
                attrs.len(),
                cardinalities.len()
            )));
        }
        // Re-derive the strides with the same overflow/zero rules `new`
        // enforces, but failing as a parse error instead of a panic: a
        // persisted schema is untrusted input.
        cardinalities.iter().try_fold(1u64, |acc, &card| {
            if card == 0 {
                return Err(DeError::new("schema cardinality of 0"));
            }
            acc.checked_mul(card)
                .ok_or_else(|| DeError::new("schema domain exceeds u64"))
        })?;
        Ok(Self::from_parts(attrs, cardinalities))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{MarginalSpec, WorkerAttr, WorkplaceAttr};
    use lodes::{Generator, GeneratorConfig};

    fn schema() -> (CellSchema, Dataset) {
        let d = Generator::new(GeneratorConfig::test_small(1)).generate();
        let spec = MarginalSpec::new(
            vec![WorkplaceAttr::Naics, WorkplaceAttr::Ownership],
            vec![WorkerAttr::Sex],
        );
        (CellSchema::new(&spec, &d), d)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (s, _) = schema();
        assert_eq!(s.domain_size(), 20 * 4 * 2);
        for naics in 0..20u32 {
            for own in 0..4u32 {
                for sex in 0..2u32 {
                    let key = s.encode(&[naics, own, sex]);
                    assert_eq!(s.decode(key), vec![naics, own, sex]);
                    assert_eq!(s.value_of(key, 0), naics);
                    assert_eq!(s.value_of(key, 1), own);
                    assert_eq!(s.value_of(key, 2), sex);
                }
            }
        }
    }

    #[test]
    fn keys_are_unique_across_domain() {
        let (s, _) = schema();
        let mut seen = std::collections::BTreeSet::new();
        for naics in 0..20u32 {
            for own in 0..4u32 {
                for sex in 0..2u32 {
                    assert!(seen.insert(s.encode(&[naics, own, sex])));
                }
            }
        }
        assert_eq!(seen.len() as u64, s.domain_size());
    }

    #[test]
    fn position_of_finds_attrs() {
        let (s, _) = schema();
        assert_eq!(
            s.position_of(Attr::Workplace(WorkplaceAttr::Naics)),
            Some(0)
        );
        assert_eq!(s.position_of(Attr::Worker(WorkerAttr::Sex)), Some(2));
        assert_eq!(s.position_of(Attr::Worker(WorkerAttr::Age)), None);
    }

    #[test]
    fn empty_spec_has_single_cell() {
        let d = Generator::new(GeneratorConfig::test_small(2)).generate();
        let spec = MarginalSpec::new(vec![], vec![]);
        let s = CellSchema::new(&spec, &d);
        assert_eq!(s.domain_size(), 1);
        assert_eq!(s.encode(&[]), CellKey(0));
        assert!(s.decode(CellKey(0)).is_empty());
    }
}

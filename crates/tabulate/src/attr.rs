//! Grouping attributes and marginal specifications.
//!
//! A marginal query is defined by the set of attributes it groups by —
//! `V_W ⊆` workplace attributes (public per Sec 4.1) and `V_I ⊆` worker
//! attributes (private). The distinction matters for privacy accounting:
//! marginals over only workplace attributes parallel-compose under strong
//! (α,ε)-ER-EE privacy, while marginals that include worker attributes
//! require weak privacy and sequential composition over the worker-cell
//! domain (Sec 8 of the paper).

use lodes::NaicsSector;
use lodes::{AgeGroup, Dataset, Education, Ethnicity, Ownership, Race, Sex, Worker, Workplace};
use serde::{get_field, DeError, Deserialize, Serialize, Value};

/// A workplace (establishment) attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum WorkplaceAttr {
    /// State containing the establishment.
    State,
    /// County containing the establishment.
    County,
    /// Census place containing the establishment.
    Place,
    /// Census block of the establishment.
    Block,
    /// Two-digit NAICS sector.
    Naics,
    /// Ownership type.
    Ownership,
}

/// A worker (employee) attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum WorkerAttr {
    /// Sex.
    Sex,
    /// Age group.
    Age,
    /// Race.
    Race,
    /// Ethnicity.
    Ethnicity,
    /// Educational attainment.
    Education,
}

/// Either kind of attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Attr {
    /// Workplace attribute.
    Workplace(WorkplaceAttr),
    /// Worker attribute.
    Worker(WorkerAttr),
}

impl WorkplaceAttr {
    /// Domain cardinality with respect to a concrete dataset (geographic
    /// attributes depend on the generated universe).
    pub fn cardinality(&self, dataset: &Dataset) -> usize {
        match self {
            WorkplaceAttr::State => dataset.geography().num_states() as usize,
            WorkplaceAttr::County => dataset.geography().num_counties(),
            WorkplaceAttr::Place => dataset.geography().num_places(),
            WorkplaceAttr::Block => dataset.geography().num_blocks(),
            WorkplaceAttr::Naics => NaicsSector::COUNT,
            WorkplaceAttr::Ownership => Ownership::COUNT,
        }
    }

    /// The attribute's value for a workplace, as a dense index.
    #[inline]
    pub fn value(&self, wp: &Workplace) -> u32 {
        match self {
            WorkplaceAttr::State => wp.state.0 as u32,
            WorkplaceAttr::County => wp.county.0 as u32,
            WorkplaceAttr::Place => wp.place.0,
            WorkplaceAttr::Block => wp.block.0,
            WorkplaceAttr::Naics => wp.naics.index() as u32,
            WorkplaceAttr::Ownership => wp.ownership.index() as u32,
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            WorkplaceAttr::State => "state",
            WorkplaceAttr::County => "county",
            WorkplaceAttr::Place => "place",
            WorkplaceAttr::Block => "block",
            WorkplaceAttr::Naics => "naics",
            WorkplaceAttr::Ownership => "ownership",
        }
    }
}

impl WorkerAttr {
    /// Domain cardinality (worker domains are fixed enums).
    pub fn cardinality(&self) -> usize {
        match self {
            WorkerAttr::Sex => Sex::COUNT,
            WorkerAttr::Age => AgeGroup::COUNT,
            WorkerAttr::Race => Race::COUNT,
            WorkerAttr::Ethnicity => Ethnicity::COUNT,
            WorkerAttr::Education => Education::COUNT,
        }
    }

    /// The attribute's value for a worker, as a dense index.
    #[inline]
    pub fn value(&self, w: &Worker) -> u32 {
        match self {
            WorkerAttr::Sex => w.sex.index() as u32,
            WorkerAttr::Age => w.age.index() as u32,
            WorkerAttr::Race => w.race.index() as u32,
            WorkerAttr::Ethnicity => w.ethnicity.index() as u32,
            WorkerAttr::Education => w.education.index() as u32,
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            WorkerAttr::Sex => "sex",
            WorkerAttr::Age => "age",
            WorkerAttr::Race => "race",
            WorkerAttr::Ethnicity => "ethnicity",
            WorkerAttr::Education => "education",
        }
    }
}

/// A marginal query specification `q_{V_I ∪ V_W}`.
///
/// Ordered and hashable so specs can key caches (e.g. the release
/// engine's tabulation cache) and sorted indexes.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct MarginalSpec {
    /// Workplace grouping attributes `V_W` (order defines key layout).
    pub workplace_attrs: Vec<WorkplaceAttr>,
    /// Worker grouping attributes `V_I`.
    pub worker_attrs: Vec<WorkerAttr>,
}

impl MarginalSpec {
    /// Build a spec.
    ///
    /// # Panics
    /// Panics if an attribute is listed twice.
    pub fn new(workplace_attrs: Vec<WorkplaceAttr>, worker_attrs: Vec<WorkerAttr>) -> Self {
        Self::try_new(workplace_attrs, worker_attrs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The spec, or why it is refused: an attribute listed twice. The one
    /// check behind [`new`](Self::new) and deserialization, so a spec
    /// submitted from outside the program is refused the same way.
    fn try_new(
        workplace_attrs: Vec<WorkplaceAttr>,
        worker_attrs: Vec<WorkerAttr>,
    ) -> Result<Self, &'static str> {
        if has_duplicate(&workplace_attrs) {
            return Err("duplicate workplace attribute in marginal spec");
        }
        if has_duplicate(&worker_attrs) {
            return Err("duplicate worker attribute in marginal spec");
        }
        Ok(Self {
            workplace_attrs,
            worker_attrs,
        })
    }

    /// True when the marginal groups by at least one worker attribute —
    /// such marginals need weak (α,ε)-ER-EE privacy (Thm 8.1).
    pub fn has_worker_attrs(&self) -> bool {
        !self.worker_attrs.is_empty()
    }

    /// Size of the worker-attribute sub-domain `d` — the sequential-
    /// composition multiplier for releasing the full marginal under weak
    /// privacy (Sec 8: effective loss is `d·ε`).
    pub fn worker_domain_size(&self) -> usize {
        self.worker_attrs
            .iter()
            .map(|a| a.cardinality())
            .product::<usize>()
            .max(1)
    }

    /// All attributes in key order (workplace attributes first).
    pub fn attrs(&self) -> impl Iterator<Item = Attr> + '_ {
        self.workplace_attrs
            .iter()
            .map(|&a| Attr::Workplace(a))
            .chain(self.worker_attrs.iter().map(|&a| Attr::Worker(a)))
    }

    /// Human-readable name, e.g. `place x naics x ownership`.
    pub fn name(&self) -> String {
        let parts: Vec<&str> = self
            .workplace_attrs
            .iter()
            .map(|a| a.name())
            .chain(self.worker_attrs.iter().map(|a| a.name()))
            .collect();
        if parts.is_empty() {
            "total".to_string()
        } else {
            parts.join(" x ")
        }
    }
}

/// The wire shape is the derived one; every spec read passes the checks
/// of [`MarginalSpec::new`].
impl Deserialize for MarginalSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Self::try_new(
            Vec::from_value(get_field(v, "workplace_attrs")?)?,
            Vec::from_value(get_field(v, "worker_attrs")?)?,
        )
        .map_err(DeError::new)
    }
}

/// Whether any value appears twice in `attrs`.
fn has_duplicate<T: Ord + Clone>(attrs: &[T]) -> bool {
    let mut sorted = attrs.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).any(|w| w[0] == w[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use lodes::{Generator, GeneratorConfig};

    #[test]
    fn cardinalities_match_dataset() {
        let d = Generator::new(GeneratorConfig::test_small(1)).generate();
        assert_eq!(
            WorkplaceAttr::Place.cardinality(&d),
            d.geography().num_places()
        );
        assert_eq!(WorkplaceAttr::Naics.cardinality(&d), 20);
        assert_eq!(WorkplaceAttr::Ownership.cardinality(&d), 4);
        assert_eq!(WorkerAttr::Sex.cardinality(), 2);
        assert_eq!(WorkerAttr::Education.cardinality(), 4);
    }

    #[test]
    fn spec_name_and_domain() {
        let spec = MarginalSpec::new(
            vec![WorkplaceAttr::Place, WorkplaceAttr::Naics],
            vec![WorkerAttr::Sex, WorkerAttr::Education],
        );
        assert_eq!(spec.name(), "place x naics x sex x education");
        assert_eq!(spec.worker_domain_size(), 8);
        assert!(spec.has_worker_attrs());
        let er_only = MarginalSpec::new(vec![WorkplaceAttr::Place], vec![]);
        assert!(!er_only.has_worker_attrs());
        assert_eq!(er_only.worker_domain_size(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate workplace attribute")]
    fn rejects_duplicates() {
        MarginalSpec::new(vec![WorkplaceAttr::Place, WorkplaceAttr::Place], vec![]);
    }

    #[test]
    fn deserialization_refuses_duplicates() {
        let spec = MarginalSpec::new(vec![WorkplaceAttr::Block], vec![WorkerAttr::Sex]);
        let json = serde_json::to_string(&spec).unwrap();
        assert_eq!(
            json,
            r#"{"workplace_attrs":["Block"],"worker_attrs":["Sex"]}"#
        );
        assert_eq!(serde_json::from_str::<MarginalSpec>(&json).unwrap(), spec);
        for duplicate in [
            r#"{"workplace_attrs":["Block","Naics","Block"],"worker_attrs":[]}"#,
            r#"{"workplace_attrs":[],"worker_attrs":["Sex","Sex"]}"#,
        ] {
            let refused = serde_json::from_str::<MarginalSpec>(duplicate).unwrap_err();
            assert!(refused.to_string().contains("duplicate"), "{refused}");
        }
    }
}

//! Declarative worker/workplace filters with serializable identity.
//!
//! The paper's sub-population workloads (Ranking 2's "female workers with
//! a bachelor's degree or higher", OnTheMap-style county × industry
//! extracts) restrict the tabulated population by a predicate over the
//! joined `WorkerFull` record. [`FilterExpr`] is that predicate as
//! *data*, so equal filters share one identity across places and
//! processes:
//!
//! * **Leaves** compare one attribute of the joined record against a
//!   constant — [`FilterExpr::WorkerCmp`] / [`FilterExpr::WorkplaceCmp`]
//!   for a single comparison, [`FilterExpr::WorkerIn`] /
//!   [`FilterExpr::WorkplaceIn`] for set membership. Geography and
//!   industry restrictions (the LODES prefix queries: "establishments in
//!   county 12", "sector 31 or 44") are leaves over the denormalized
//!   workplace columns, built with [`FilterExpr::in_state`],
//!   [`FilterExpr::in_county`], [`FilterExpr::in_place`],
//!   [`FilterExpr::in_block`], [`FilterExpr::sector`], and
//!   [`FilterExpr::sectors_in`].
//! * **Combinators** [`and`](FilterExpr::and), [`or`](FilterExpr::or),
//!   [`not`](FilterExpr::not) compose arbitrarily.
//! * The whole tree serializes via serde (it is plain data), and
//!   [`FilterExpr::id`] derives a stable content digest — [`FilterId`] —
//!   that is identical for structurally equal expressions no matter when,
//!   where, or by which process they were constructed. The digest labels
//!   filters in keys, logs, and error messages; exact consumers compare
//!   [`FilterExpr::normalized`] forms, and provenance records the
//!   expression itself.
//!
//! # Evaluation
//!
//! [`FilterExpr::matches_record`] is the reference semantics: evaluate
//! the tree against one `(worker, workplace)` record pair. The production
//! path is [`FilterExpr::compile`], which specializes the expression
//! against a [`TabulationIndex`] into the [`CompiledFilter`] the
//! tabulation scatter loop consults:
//!
//! * every workplace leaf is evaluated once per **establishment** from
//!   the index's columnar workplace codes, and establishments are deduped
//!   into distinct leaf-truth *patterns*;
//! * for each distinct pattern the full expression is collapsed into a
//!   truth table over the 768-point worker-attribute domain
//!   (2 × 8 × 6 × 2 × 4);
//! * a worker is then admitted by two array lookups — its establishment's
//!   pattern and its packed attribute code — regardless of how large the
//!   expression is.
//!
//! ```
//! use lodes::{Generator, GeneratorConfig, Education, Sex};
//! use tabulate::{workload1, DatasetIndex, FilterExpr, Kernel};
//!
//! // Ranking 2's population: female workers with a bachelor's or higher.
//! let expr = FilterExpr::sex(Sex::Female)
//!     .and(FilterExpr::education_at_least(Education::BachelorOrHigher));
//!
//! // Serializable, with a stable identity.
//! let json = serde_json::to_string(&expr).unwrap();
//! let back: FilterExpr = serde_json::from_str(&json).unwrap();
//! assert_eq!(back.id(), expr.id());
//!
//! // Compiled against each shard of the index, it drives a filtered
//! // marginal.
//! let dataset = Generator::new(GeneratorConfig::test_small(7)).generate();
//! let index = DatasetIndex::build_auto(&dataset);
//! let marginal = index.marginal(&workload1(), Some(&expr), 1, Kernel::Auto);
//! assert!(marginal.total() > 0);
//! ```

use crate::attr::{WorkerAttr, WorkplaceAttr};
use crate::index::TabulationIndex;
use lodes::{
    AgeGroup, BlockId, CountyId, Education, Ethnicity, NaicsSector, Ownership, PlaceId, Race, Sex,
    StateId, Worker, Workplace,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Size of the full worker-attribute domain the compiled truth tables
/// cover (sex × age × race × ethnicity × education).
const WORKER_DOMAIN: usize = lodes::worker::WORKER_DOMAIN_SIZE;

/// Comparison operator of a filter leaf.
///
/// Attributes are categorical; comparisons act on their **dense index**
/// (the order the corresponding enum declares, e.g. [`AgeGroup`] and
/// [`Education`] ascend, so `Ge` reads "at least"). For nominal attributes
/// (race, NAICS sector, geography ids) only `Eq`/`Ne` are meaningful —
/// the others are well-defined but order-arbitrary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Cmp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than (dense-index order).
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl Cmp {
    fn eval(self, lhs: u32, rhs: u32) -> bool {
        match self {
            Cmp::Eq => lhs == rhs,
            Cmp::Ne => lhs != rhs,
            Cmp::Lt => lhs < rhs,
            Cmp::Le => lhs <= rhs,
            Cmp::Gt => lhs > rhs,
            Cmp::Ge => lhs >= rhs,
        }
    }

    fn tag(self) -> u64 {
        match self {
            Cmp::Eq => 0,
            Cmp::Ne => 1,
            Cmp::Lt => 2,
            Cmp::Le => 3,
            Cmp::Gt => 4,
            Cmp::Ge => 5,
        }
    }
}

/// Stable content digest of a [`FilterExpr`].
///
/// Structurally equal expressions (after canonicalizing membership sets —
/// see [`FilterExpr::normalized`]) have equal ids regardless of which
/// process constructed them or whether they round-tripped through serde.
/// `And`/`Or` operand *order* is part of the identity (the constructors
/// do not reassociate), so build filters the same way on both sides of a
/// cache or resume boundary.
///
/// The digest is FNV-1a over a tagged pre-order encoding of the
/// normalized tree, matching the fingerprint idiom used for datasets and
/// truth marginals elsewhere in the workspace. It is a *fingerprint* for
/// keys, labels, and messages — consumers that must never confuse two
/// filters (the engine's tabulation cache, season-resume verification)
/// compare normalized expressions directly rather than trusting 64 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FilterId(pub u64);

impl std::fmt::Display for FilterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A declarative filter over the joined worker × workplace record.
///
/// See the [module docs](self) for semantics, construction helpers, and
/// the compilation pipeline. Variants are public so expressions can be
/// pattern-matched and stored; prefer the typed constructors
/// ([`sex`](Self::sex), [`in_county`](Self::in_county),
/// [`sectors_in`](Self::sectors_in), …) over building leaves by hand —
/// they canonicalize membership sets and keep attribute codes in range.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FilterExpr {
    /// Matches every record (the unfiltered population).
    All,
    /// Compare one worker attribute's dense code against a constant.
    WorkerCmp(WorkerAttr, Cmp, u32),
    /// Worker attribute code is a member of the (sorted) set.
    WorkerIn(WorkerAttr, Vec<u32>),
    /// Compare one workplace attribute's dense code against a constant.
    WorkplaceCmp(WorkplaceAttr, Cmp, u32),
    /// Workplace attribute code is a member of the (sorted) set.
    WorkplaceIn(WorkplaceAttr, Vec<u32>),
    /// Every operand matches (empty = matches all).
    And(Vec<FilterExpr>),
    /// At least one operand matches (empty = matches none).
    Or(Vec<FilterExpr>),
    /// The operand does not match.
    Not(Box<FilterExpr>),
}

impl FilterExpr {
    // ---- worker-attribute constructors ----

    /// Workers of the given sex.
    pub fn sex(sex: Sex) -> Self {
        FilterExpr::WorkerCmp(WorkerAttr::Sex, Cmp::Eq, sex.index() as u32)
    }

    /// Workers in the given age group.
    pub fn age(age: AgeGroup) -> Self {
        FilterExpr::WorkerCmp(WorkerAttr::Age, Cmp::Eq, age.index() as u32)
    }

    /// Workers in any of the given age groups.
    pub fn age_in(ages: impl IntoIterator<Item = AgeGroup>) -> Self {
        FilterExpr::WorkerIn(
            WorkerAttr::Age,
            canonical_set(ages.into_iter().map(|a| a.index() as u32)),
        )
    }

    /// Workers of the given race.
    pub fn race(race: Race) -> Self {
        FilterExpr::WorkerCmp(WorkerAttr::Race, Cmp::Eq, race.index() as u32)
    }

    /// Workers of the given ethnicity.
    pub fn ethnicity(ethnicity: Ethnicity) -> Self {
        FilterExpr::WorkerCmp(WorkerAttr::Ethnicity, Cmp::Eq, ethnicity.index() as u32)
    }

    /// Workers with exactly the given educational attainment.
    pub fn education(education: Education) -> Self {
        FilterExpr::WorkerCmp(WorkerAttr::Education, Cmp::Eq, education.index() as u32)
    }

    /// Workers with at least the given educational attainment
    /// ([`Education`] ascends from `LessThanHighSchool`).
    pub fn education_at_least(education: Education) -> Self {
        FilterExpr::WorkerCmp(WorkerAttr::Education, Cmp::Ge, education.index() as u32)
    }

    // ---- workplace-attribute constructors (geography / industry) ----

    /// Establishments in the given state — the coarsest geography prefix.
    pub fn in_state(state: StateId) -> Self {
        FilterExpr::WorkplaceCmp(WorkplaceAttr::State, Cmp::Eq, state.0 as u32)
    }

    /// Establishments in the given county.
    pub fn in_county(county: CountyId) -> Self {
        FilterExpr::WorkplaceCmp(WorkplaceAttr::County, Cmp::Eq, county.0 as u32)
    }

    /// Establishments in the given Census place.
    pub fn in_place(place: PlaceId) -> Self {
        FilterExpr::WorkplaceCmp(WorkplaceAttr::Place, Cmp::Eq, place.0)
    }

    /// Establishments in the given census block — the finest geography
    /// prefix.
    pub fn in_block(block: BlockId) -> Self {
        FilterExpr::WorkplaceCmp(WorkplaceAttr::Block, Cmp::Eq, block.0)
    }

    /// Establishments in the given NAICS sector (two-digit industry
    /// prefix).
    pub fn sector(sector: NaicsSector) -> Self {
        FilterExpr::WorkplaceCmp(WorkplaceAttr::Naics, Cmp::Eq, sector.index() as u32)
    }

    /// Establishments in any of the given NAICS sectors.
    pub fn sectors_in(sectors: impl IntoIterator<Item = NaicsSector>) -> Self {
        FilterExpr::WorkplaceIn(
            WorkplaceAttr::Naics,
            canonical_set(sectors.into_iter().map(|s| s.index() as u32)),
        )
    }

    /// Establishments with the given ownership type.
    pub fn ownership(ownership: Ownership) -> Self {
        FilterExpr::WorkplaceCmp(WorkplaceAttr::Ownership, Cmp::Eq, ownership.index() as u32)
    }

    // ---- combinators ----

    /// Both this and `other` (operand order is part of the identity).
    pub fn and(self, other: FilterExpr) -> Self {
        match self {
            FilterExpr::And(mut ops) => {
                ops.push(other);
                FilterExpr::And(ops)
            }
            first => FilterExpr::And(vec![first, other]),
        }
    }

    /// Either this or `other` (operand order is part of the identity).
    pub fn or(self, other: FilterExpr) -> Self {
        match self {
            FilterExpr::Or(mut ops) => {
                ops.push(other);
                FilterExpr::Or(ops)
            }
            first => FilterExpr::Or(vec![first, other]),
        }
    }

    /// The negation of this expression.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        FilterExpr::Not(Box::new(self))
    }

    /// Levels of the expression tree: 1 for a leaf or [`All`](Self::All),
    /// one more than the deepest operand for a combinator.
    pub fn depth(&self) -> usize {
        match self {
            FilterExpr::And(ops) | FilterExpr::Or(ops) => {
                1 + ops.iter().map(Self::depth).max().unwrap_or(0)
            }
            FilterExpr::Not(op) => 1 + op.depth(),
            _ => 1,
        }
    }

    // ---- identity ----

    /// The expression's canonical form: membership sets sorted and
    /// deduplicated, everything else unchanged. Two expressions describe
    /// the same filter identity iff their normalized forms are equal;
    /// [`id`](Self::id) digests this form, and exact consumers (the
    /// tabulation cache, season-resume verification) compare it
    /// directly — the digest is a compact fingerprint for keys and
    /// messages, never the last word on equality.
    pub fn normalized(&self) -> FilterExpr {
        match self {
            FilterExpr::WorkerIn(attr, values) => {
                FilterExpr::WorkerIn(*attr, canonical_set(values.iter().copied()))
            }
            FilterExpr::WorkplaceIn(attr, values) => {
                FilterExpr::WorkplaceIn(*attr, canonical_set(values.iter().copied()))
            }
            FilterExpr::And(ops) => FilterExpr::And(ops.iter().map(Self::normalized).collect()),
            FilterExpr::Or(ops) => FilterExpr::Or(ops.iter().map(Self::normalized).collect()),
            FilterExpr::Not(op) => FilterExpr::Not(Box::new(op.normalized())),
            leaf => leaf.clone(),
        }
    }

    /// The expression's stable content digest; see [`FilterId`].
    pub fn id(&self) -> FilterId {
        let mut hash = crate::Fnv1a::new();
        self.fold(&mut hash);
        FilterId(hash.finish())
    }

    /// Fold the tree into the FNV-1a state. Membership sets are
    /// canonicalized inline (a small scratch copy per `In` leaf), so the
    /// digest equals the [`normalized`](Self::normalized) form's without
    /// cloning the whole tree.
    fn fold(&self, hash: &mut crate::Fnv1a) {
        match self {
            FilterExpr::All => hash.word(0),
            FilterExpr::WorkerCmp(attr, cmp, value) => {
                hash.word(1);
                hash.word(worker_attr_tag(*attr));
                hash.word(cmp.tag());
                hash.word(*value as u64);
            }
            FilterExpr::WorkerIn(attr, values) => {
                hash.word(2);
                hash.word(worker_attr_tag(*attr));
                let canonical = canonical_set(values.iter().copied());
                hash.word(canonical.len() as u64);
                for v in canonical {
                    hash.word(v as u64);
                }
            }
            FilterExpr::WorkplaceCmp(attr, cmp, value) => {
                hash.word(3);
                hash.word(workplace_attr_tag(*attr));
                hash.word(cmp.tag());
                hash.word(*value as u64);
            }
            FilterExpr::WorkplaceIn(attr, values) => {
                hash.word(4);
                hash.word(workplace_attr_tag(*attr));
                let canonical = canonical_set(values.iter().copied());
                hash.word(canonical.len() as u64);
                for v in canonical {
                    hash.word(v as u64);
                }
            }
            FilterExpr::And(ops) => {
                hash.word(5);
                hash.word(ops.len() as u64);
                for op in ops {
                    op.fold(hash);
                }
            }
            FilterExpr::Or(ops) => {
                hash.word(6);
                hash.word(ops.len() as u64);
                for op in ops {
                    op.fold(hash);
                }
            }
            FilterExpr::Not(op) => {
                hash.word(7);
                op.fold(hash);
            }
        }
    }

    // ---- evaluation ----

    /// Reference semantics: does the joined record `(worker, workplace)`
    /// match? [`compile`](Self::compile) is bit-equivalent and is the
    /// path tabulation uses.
    pub fn matches_record(&self, worker: &Worker, workplace: &Workplace) -> bool {
        match self {
            FilterExpr::All => true,
            FilterExpr::WorkerCmp(attr, cmp, value) => cmp.eval(attr.value(worker), *value),
            FilterExpr::WorkerIn(attr, values) => member(values, attr.value(worker)),
            FilterExpr::WorkplaceCmp(attr, cmp, value) => cmp.eval(attr.value(workplace), *value),
            FilterExpr::WorkplaceIn(attr, values) => member(values, attr.value(workplace)),
            FilterExpr::And(ops) => ops.iter().all(|op| op.matches_record(worker, workplace)),
            FilterExpr::Or(ops) => ops.iter().any(|op| op.matches_record(worker, workplace)),
            FilterExpr::Not(op) => !op.matches_record(worker, workplace),
        }
    }

    /// True when no leaf touches a workplace attribute (the expression is
    /// a pure worker predicate and compiles to a single truth table).
    pub fn is_worker_only(&self) -> bool {
        match self {
            FilterExpr::All | FilterExpr::WorkerCmp(..) | FilterExpr::WorkerIn(..) => true,
            FilterExpr::WorkplaceCmp(..) | FilterExpr::WorkplaceIn(..) => false,
            FilterExpr::And(ops) | FilterExpr::Or(ops) => ops.iter().all(Self::is_worker_only),
            FilterExpr::Not(op) => op.is_worker_only(),
        }
    }

    /// Specialize this expression against `index` into the form the
    /// tabulation engine consumes; see the [module docs](self) for the
    /// pattern/truth-table construction.
    pub fn compile(&self, index: &TabulationIndex) -> CompiledFilter {
        // 1. Evaluate every workplace leaf per establishment and dedupe
        //    establishments into distinct leaf-truth patterns.
        let leaves = self.workplace_leaves();
        let n_estabs = index.num_establishments();
        let (pattern_of_estab, patterns) = if leaves.is_empty() {
            (Vec::new(), vec![Vec::new()])
        } else {
            let columns: Vec<&[u32]> = leaves
                .iter()
                .map(|leaf| index.workplace_column(leaf_attr(leaf)))
                .collect();
            let mut pattern_ids: HashMap<Vec<bool>, u32> = HashMap::new();
            let mut patterns: Vec<Vec<bool>> = Vec::new();
            let mut pattern_of_estab = Vec::with_capacity(n_estabs);
            // One scratch buffer reused across establishments; nearly
            // every establishment hits an existing pattern, so the loop
            // allocates only on the (rare) first sighting of a pattern.
            let mut truths: Vec<bool> = Vec::with_capacity(leaves.len());
            for e in 0..n_estabs {
                truths.clear();
                truths.extend(
                    leaves
                        .iter()
                        .zip(&columns)
                        .map(|(leaf, col)| leaf_eval(leaf, col[e])),
                );
                let id = match pattern_ids.get(&truths) {
                    Some(&id) => id,
                    None => {
                        let id = patterns.len() as u32;
                        patterns.push(truths.clone());
                        pattern_ids.insert(truths.clone(), id);
                        id
                    }
                };
                pattern_of_estab.push(id);
            }
            (pattern_of_estab, patterns)
        };
        // 2. Collapse the expression into one worker-domain truth table
        //    per distinct pattern.
        let tables: Vec<Vec<bool>> = patterns
            .iter()
            .map(|pattern| {
                (0..WORKER_DOMAIN)
                    .map(|code| {
                        let values = decode_worker_code(code);
                        let mut next_leaf = 0;
                        self.eval_specialized(&values, pattern, &mut next_leaf)
                    })
                    .collect()
            })
            .collect();
        // 3. Workers reach `matches` as `&Worker` (in whatever order the
        //    caller iterates), so establishment lookup goes through the
        //    dense worker id — a filter-independent column the index
        //    built once and shares with every compiled filter.
        CompiledFilter {
            pattern_of_estab,
            employer_of_worker: Arc::clone(index.employer_of_worker()),
            tables,
        }
    }

    /// Workplace leaves in pre-order (the order `eval_specialized`
    /// consumes pattern entries in).
    fn workplace_leaves(&self) -> Vec<&FilterExpr> {
        fn walk<'a>(expr: &'a FilterExpr, out: &mut Vec<&'a FilterExpr>) {
            match expr {
                FilterExpr::WorkplaceCmp(..) | FilterExpr::WorkplaceIn(..) => out.push(expr),
                FilterExpr::And(ops) | FilterExpr::Or(ops) => {
                    for op in ops {
                        walk(op, out);
                    }
                }
                FilterExpr::Not(op) => walk(op, out),
                FilterExpr::All | FilterExpr::WorkerCmp(..) | FilterExpr::WorkerIn(..) => {}
            }
        }
        let mut leaves = Vec::new();
        walk(self, &mut leaves);
        leaves
    }

    /// Evaluate with worker attributes bound to `values` (dense codes in
    /// [`WORKER_ATTR_ORDER`] order) and workplace leaves answered from
    /// `pattern`. Every subtree is visited — no short-circuiting — so the
    /// leaf cursor stays aligned with the pre-order of
    /// [`workplace_leaves`](Self::workplace_leaves).
    fn eval_specialized(&self, values: &[u32; 5], pattern: &[bool], next_leaf: &mut usize) -> bool {
        match self {
            FilterExpr::All => true,
            FilterExpr::WorkerCmp(attr, cmp, value) => {
                cmp.eval(values[worker_attr_tag(*attr) as usize], *value)
            }
            FilterExpr::WorkerIn(attr, set) => member(set, values[worker_attr_tag(*attr) as usize]),
            FilterExpr::WorkplaceCmp(..) | FilterExpr::WorkplaceIn(..) => {
                let truth = pattern[*next_leaf];
                *next_leaf += 1;
                truth
            }
            FilterExpr::And(ops) => ops.iter().fold(true, |acc, op| {
                let v = op.eval_specialized(values, pattern, next_leaf);
                acc && v
            }),
            FilterExpr::Or(ops) => ops.iter().fold(false, |acc, op| {
                let v = op.eval_specialized(values, pattern, next_leaf);
                acc || v
            }),
            FilterExpr::Not(op) => !op.eval_specialized(values, pattern, next_leaf),
        }
    }
}

/// Attribute of a workplace leaf collected by `workplace_leaves`.
fn leaf_attr(leaf: &FilterExpr) -> WorkplaceAttr {
    match leaf {
        FilterExpr::WorkplaceCmp(attr, ..) | FilterExpr::WorkplaceIn(attr, _) => *attr,
        _ => unreachable!("workplace_leaves() only collects workplace leaves"),
    }
}

/// Evaluate a workplace leaf against one establishment's attribute code.
fn leaf_eval(leaf: &FilterExpr, code: u32) -> bool {
    match leaf {
        FilterExpr::WorkplaceCmp(_, cmp, value) => cmp.eval(code, *value),
        FilterExpr::WorkplaceIn(_, values) => member(values, code),
        _ => unreachable!("workplace_leaves() only collects workplace leaves"),
    }
}

/// Sorted, deduplicated membership set (the canonical leaf form).
fn canonical_set(values: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut values: Vec<u32> = values.collect();
    values.sort_unstable();
    values.dedup();
    values
}

/// Membership test. A linear scan: leaf sets are tiny (a handful of
/// categories), and it is correct whether or not a hand-built leaf was
/// left unsorted, so reference and compiled evaluation agree on any
/// input.
fn member(values: &[u32], code: u32) -> bool {
    values.contains(&code)
}

fn worker_attr_tag(attr: WorkerAttr) -> u64 {
    match attr {
        WorkerAttr::Sex => 0,
        WorkerAttr::Age => 1,
        WorkerAttr::Race => 2,
        WorkerAttr::Ethnicity => 3,
        WorkerAttr::Education => 4,
    }
}

fn workplace_attr_tag(attr: WorkplaceAttr) -> u64 {
    match attr {
        WorkplaceAttr::State => 0,
        WorkplaceAttr::County => 1,
        WorkplaceAttr::Place => 2,
        WorkplaceAttr::Block => 3,
        WorkplaceAttr::Naics => 4,
        WorkplaceAttr::Ownership => 5,
    }
}

/// Pack a worker's five attribute codes into one index over the
/// 768-point worker domain — [`lodes::histogram::WorkerCell`]'s packing (sex, age,
/// race, ethnicity, education), the one encoding shared with the
/// histogram layer so the two can never drift apart.
#[inline]
fn worker_code(worker: &Worker) -> usize {
    lodes::histogram::WorkerCell::of(worker).0 as usize
}

/// Inverse of [`worker_code`]: the five dense attribute codes in
/// `worker_attr_tag` slot order (sex, age, race, ethnicity, education).
fn decode_worker_code(code: usize) -> [u32; 5] {
    let (sex, age, race, ethnicity, education) = lodes::histogram::WorkerCell(code as u16).decode();
    [
        sex.index() as u32,
        age.index() as u32,
        race.index() as u32,
        ethnicity.index() as u32,
        education.index() as u32,
    ]
}

/// A [`FilterExpr`] specialized against one [`TabulationIndex`]:
/// per-establishment workplace-leaf patterns plus one worker-domain truth
/// table per distinct pattern. `matches` is two array lookups per worker.
///
/// Only valid for workers of the index it was compiled against. `Send +
/// Sync` (plain arrays), so the sharded tabulation loop can borrow it
/// from every worker thread.
#[derive(Debug, Clone)]
pub struct CompiledFilter {
    /// Pattern id per establishment (empty for worker-only expressions).
    pattern_of_estab: Vec<u32>,
    /// Establishment per dense worker id, shared with the index it was
    /// compiled against (unused by worker-only expressions).
    employer_of_worker: Arc<Vec<u32>>,
    /// One worker-domain truth table per distinct pattern.
    tables: Vec<Vec<bool>>,
}

impl CompiledFilter {
    /// Does `worker` (a record of the compiled-against index's dataset)
    /// match?
    #[inline]
    pub fn matches(&self, worker: &Worker) -> bool {
        let pattern = if self.pattern_of_estab.is_empty() {
            0
        } else {
            self.pattern_of_estab[self.employer_of_worker[worker.id.0 as usize] as usize] as usize
        };
        self.tables[pattern][worker_code(worker)]
    }

    /// Number of distinct workplace-leaf patterns (1 for worker-only
    /// expressions).
    pub fn num_patterns(&self) -> usize {
        self.tables.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lodes::{Dataset, Generator, GeneratorConfig};

    fn dataset() -> Dataset {
        Generator::new(GeneratorConfig::test_small(23)).generate()
    }

    fn ranking2() -> FilterExpr {
        FilterExpr::sex(Sex::Female)
            .and(FilterExpr::education_at_least(Education::BachelorOrHigher))
    }

    #[test]
    fn identity_is_structural_not_pointer() {
        let a = ranking2();
        let b = ranking2();
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        // Different structure, different identity.
        assert_ne!(a.id(), FilterExpr::sex(Sex::Female).id());
        assert_ne!(a.id(), FilterExpr::All.id());
        // Operand order is part of the identity.
        let swapped = FilterExpr::education_at_least(Education::BachelorOrHigher)
            .and(FilterExpr::sex(Sex::Female));
        assert_ne!(a.id(), swapped.id());
        // Set canonicalization: insertion order does not matter.
        let s1 = FilterExpr::sectors_in([NaicsSector::ALL[3], NaicsSector::ALL[0]]);
        let s2 = FilterExpr::sectors_in([NaicsSector::ALL[0], NaicsSector::ALL[3]]);
        assert_eq!(s1.id(), s2.id());
        // Hand-built unsorted leaves digest like canonical ones, and
        // normalize to the constructor-built form exactly.
        let hand = FilterExpr::WorkplaceIn(WorkplaceAttr::Naics, vec![3, 0, 3]);
        assert_eq!(hand.id(), s1.id());
        assert_eq!(hand.normalized(), s1);
        // Normalization is idempotent and identity-preserving.
        assert_eq!(a.normalized(), a);
        assert_eq!(a.normalized().id(), a.id());
    }

    #[test]
    fn serde_round_trip_preserves_identity() {
        let exprs = [
            FilterExpr::All,
            ranking2(),
            FilterExpr::in_county(CountyId(2))
                .and(FilterExpr::sectors_in([NaicsSector::ALL[4]]))
                .or(FilterExpr::age_in([AgeGroup::A22_24, AgeGroup::A25_34]).not()),
        ];
        for expr in exprs {
            let json = serde_json::to_string(&expr).unwrap();
            let back: FilterExpr = serde_json::from_str(&json).unwrap();
            assert_eq!(back, expr);
            assert_eq!(back.id(), expr.id());
        }
    }

    #[test]
    fn compiled_matches_reference_semantics() {
        let d = dataset();
        let index = TabulationIndex::build(&d);
        let exprs = [
            FilterExpr::All,
            ranking2(),
            FilterExpr::in_state(StateId(0)),
            FilterExpr::in_county(CountyId(1)).or(FilterExpr::ownership(Ownership::ALL[0])),
            FilterExpr::sector(NaicsSector::ALL[2])
                .and(FilterExpr::sex(Sex::Male))
                .not(),
            FilterExpr::Or(vec![]),
            FilterExpr::And(vec![]),
        ];
        for expr in &exprs {
            let compiled = expr.compile(&index);
            for worker in d.workers() {
                let wp = d.workplace(d.employer_of(worker.id));
                assert_eq!(
                    compiled.matches(worker),
                    expr.matches_record(worker, wp),
                    "{expr:?} disagrees on worker {:?}",
                    worker.id
                );
            }
        }
    }

    #[cfg(feature = "reference")]
    #[test]
    fn expr_marginal_matches_reference_marginal() {
        let d = dataset();
        let spec = crate::attr::MarginalSpec::new(
            vec![WorkplaceAttr::Naics, WorkplaceAttr::Ownership],
            vec![crate::attr::WorkerAttr::Sex],
        );
        let expr = ranking2().or(FilterExpr::in_place(PlaceId(0)));
        let via_expr = crate::engine::compute_marginal_expr(&d, &spec, &expr);
        let reference = crate::engine::compute_marginal_filtered_legacy(&d, &spec, |w| {
            expr.matches_record(w, d.workplace(d.employer_of(w.id)))
        });
        assert_eq!(via_expr.num_cells(), reference.num_cells());
        for ((ka, sa), (kb, sb)) in via_expr.iter().zip(reference.iter()) {
            assert_eq!(ka, kb);
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn worker_only_expressions_skip_establishment_lookup() {
        let d = dataset();
        let index = TabulationIndex::build(&d);
        assert!(ranking2().is_worker_only());
        assert!(!FilterExpr::in_state(StateId(0)).is_worker_only());
        let compiled = ranking2().compile(&index);
        assert_eq!(compiled.num_patterns(), 1);
        // Geography splits establishments into at most two patterns.
        let compiled = FilterExpr::in_state(StateId(0)).compile(&index);
        assert!(compiled.num_patterns() <= 2);
    }

    #[test]
    fn worker_code_matches_histogram_packing() {
        // The compiled truth tables and the histogram layer must index
        // the 768-point worker domain identically.
        for code in 0..WORKER_DOMAIN {
            let values = decode_worker_code(code);
            let (sex, age, race, ethnicity, education) =
                lodes::histogram::WorkerCell(code as u16).decode();
            assert_eq!(
                values,
                [
                    sex.index() as u32,
                    age.index() as u32,
                    race.index() as u32,
                    ethnicity.index() as u32,
                    education.index() as u32
                ]
            );
        }
        let d = dataset();
        for w in d.workers().iter().take(100) {
            assert_eq!(
                worker_code(w),
                lodes::histogram::WorkerCell::of(w).0 as usize
            );
        }
    }
}

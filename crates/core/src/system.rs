//! The parameterized real-time system (Definition 2.3).

use fgqos_graph::{ActionId, PrecedenceGraph};
use fgqos_sched::{feasible, SchedError};
use fgqos_time::{DeadlineMap, QualityProfile, QualitySet};

use crate::CoreError;

/// A parameterized real-time system: precedence graph `G`, quality set
/// `Q`, execution-time families `Cav_q ≤ Cwc_q` and deadline functions
/// `D_q` (Definition 2.3).
///
/// Construction validates that the profile and deadline map cover exactly
/// the graph's actions and share one quality set. The model is immutable;
/// online average-time learning clones and updates the profile through
/// [`ParamSystem::with_profile`].
///
/// # Example
///
/// ```
/// use fgqos_core::ParamSystem;
/// use fgqos_graph::GraphBuilder;
/// use fgqos_time::{Cycles, DeadlineMap, QualityProfile, QualitySet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = GraphBuilder::new();
/// g.action("a");
/// let graph = g.build()?;
/// let qs = QualitySet::contiguous(0, 1)?;
/// let mut pb = QualityProfile::builder(qs.clone(), 1);
/// pb.set_levels(0, &[(5, 10), (20, 40)])?;
/// let system = ParamSystem::new(
///     graph,
///     pb.build()?,
///     DeadlineMap::uniform(qs, vec![Cycles::new(50)]),
/// )?;
/// assert!(system.check_schedulable().is_ok());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ParamSystem {
    graph: PrecedenceGraph,
    profile: QualityProfile,
    deadlines: DeadlineMap,
}

impl ParamSystem {
    /// Assembles and validates a system model.
    ///
    /// # Errors
    ///
    /// [`CoreError::DimensionMismatch`] if the profile or deadline map does
    /// not cover the graph; [`CoreError::Time`] if they disagree on the
    /// quality set.
    pub fn new(
        graph: PrecedenceGraph,
        profile: QualityProfile,
        deadlines: DeadlineMap,
    ) -> Result<Self, CoreError> {
        if profile.n_actions() != graph.len() {
            return Err(CoreError::DimensionMismatch {
                expected: graph.len(),
                actual: profile.n_actions(),
            });
        }
        if deadlines.n_actions() != graph.len() {
            return Err(CoreError::DimensionMismatch {
                expected: graph.len(),
                actual: deadlines.n_actions(),
            });
        }
        if profile.qualities() != deadlines.qualities() {
            return Err(CoreError::Time(fgqos_time::TimeError::LevelCountMismatch {
                expected: profile.qualities().len(),
                actual: deadlines.qualities().len(),
            }));
        }
        Ok(ParamSystem {
            graph,
            profile,
            deadlines,
        })
    }

    /// The precedence graph `G`.
    #[must_use]
    pub fn graph(&self) -> &PrecedenceGraph {
        &self.graph
    }

    /// The execution-time profile (`Cav_q`, `Cwc_q`).
    #[must_use]
    pub fn profile(&self) -> &QualityProfile {
        &self.profile
    }

    /// The deadline functions `D_q`.
    #[must_use]
    pub fn deadlines(&self) -> &DeadlineMap {
        &self.deadlines
    }

    /// The quality set `Q`.
    #[must_use]
    pub fn qualities(&self) -> &QualitySet {
        self.profile.qualities()
    }

    /// Replaces the execution-time profile (used after online estimation
    /// updates the averages), revalidating dimensions.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ParamSystem::new`].
    pub fn with_profile(&self, profile: QualityProfile) -> Result<Self, CoreError> {
        ParamSystem::new(self.graph.clone(), profile, self.deadlines.clone())
    }

    /// The control problem's precondition (Section 2.1): a feasible
    /// schedule must exist for worst-case times at minimal quality. On
    /// success returns the witness (EDF) schedule.
    ///
    /// # Errors
    ///
    /// [`SchedError::InfeasibleAtMinQuality`] when the system is overloaded
    /// beyond rescue.
    pub fn check_schedulable(&self) -> Result<Vec<ActionId>, SchedError> {
        feasible::check_precondition(&self.graph, &self.profile, &self.deadlines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgqos_graph::GraphBuilder;
    use fgqos_time::Cycles;

    fn graph1() -> PrecedenceGraph {
        let mut g = GraphBuilder::new();
        g.action("a");
        g.build().unwrap()
    }

    #[test]
    fn validates_profile_dimensions() {
        let qs = QualitySet::contiguous(0, 0).unwrap();
        let mut pb = QualityProfile::builder(qs.clone(), 2);
        pb.set_constant(0, 1, 2).unwrap();
        pb.set_constant(1, 1, 2).unwrap();
        let err = ParamSystem::new(
            graph1(),
            pb.build().unwrap(),
            DeadlineMap::uniform(qs, vec![Cycles::new(5)]),
        )
        .unwrap_err();
        assert_eq!(
            err,
            CoreError::DimensionMismatch {
                expected: 1,
                actual: 2
            }
        );
    }

    #[test]
    fn validates_quality_set_agreement() {
        let qs1 = QualitySet::contiguous(0, 1).unwrap();
        let qs2 = QualitySet::contiguous(0, 2).unwrap();
        let mut pb = QualityProfile::builder(qs1, 1);
        pb.set_levels(0, &[(1, 2), (3, 4)]).unwrap();
        let err = ParamSystem::new(
            graph1(),
            pb.build().unwrap(),
            DeadlineMap::uniform(qs2, vec![Cycles::new(5)]),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Time(_)));
    }

    #[test]
    fn schedulability_check_delegates() {
        let qs = QualitySet::contiguous(0, 0).unwrap();
        let mut pb = QualityProfile::builder(qs.clone(), 1);
        pb.set_constant(0, 10, 20).unwrap();
        let sys = ParamSystem::new(
            graph1(),
            pb.build().unwrap(),
            DeadlineMap::uniform(qs, vec![Cycles::new(5)]),
        )
        .unwrap();
        assert!(matches!(
            sys.check_schedulable(),
            Err(SchedError::InfeasibleAtMinQuality { .. })
        ));
    }
}

//! Transition-count instrumentation.
//!
//! The paper's Sect. 4.3 experiments count state transitions executed by the
//! chunk automata, "almost directly related to the time speedup". Counting
//! must not perturb the timed experiments, so the hot scanning loops are
//! generic over a [`Counter`]: with [`NoCount`] (a zero-sized type) every
//! count compiles away entirely and the loop is the plain uninstrumented
//! scan; with [`TransitionCount`] every executed transition is tallied.
//! The tally is exact either way it is taken: the simple loops add one per
//! transition, while the core's scan kernel adds its walks' counts from
//! loop indices when a phase exits (a run's end or death, a checkpoint
//! interval, a classified segment), so a counted kernel scan costs about
//! what an uncounted one does.

/// A sink for transition-count events.
pub trait Counter {
    /// Records `n` executed transitions.
    fn add(&mut self, n: u64);

    /// Records a single executed transition.
    #[inline(always)]
    fn incr(&mut self) {
        self.add(1);
    }
}

/// The no-op counter: zero-sized, compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoCount;

impl Counter for NoCount {
    #[inline(always)]
    fn add(&mut self, _n: u64) {}
}

/// A real transition tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransitionCount(pub u64);

impl Counter for TransitionCount {
    #[inline(always)]
    fn add(&mut self, n: u64) {
        self.0 += n;
    }
}

impl TransitionCount {
    /// The tallied number of transitions.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// `&mut C` forwards, so counters can be threaded through helper calls.
impl<C: Counter> Counter for &mut C {
    #[inline(always)]
    fn add(&mut self, n: u64) {
        (**self).add(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nocount_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NoCount>(), 0);
    }

    #[test]
    fn transition_count_tallies() {
        let mut c = TransitionCount::default();
        c.incr();
        c.add(5);
        assert_eq!(c.get(), 6);
    }

    #[test]
    fn counter_through_reference() {
        fn bump(mut c: impl Counter) {
            c.add(3);
        }
        let mut c = TransitionCount::default();
        bump(&mut c);
        bump(&mut c);
        assert_eq!(c.get(), 6);
    }
}

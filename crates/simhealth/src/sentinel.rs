//! Non-finite sentinels: cheap NaN/Inf scans that name the culprit.

use nbody_physics::Particle;

/// The first non-finite value found by a sentinel scan, with enough
/// attribution to blame a concrete (particle, field) in the flight
/// recorder instead of reporting "something is NaN somewhere".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NonFiniteBlame {
    /// Index of the offending particle in the scanned slice.
    pub index: usize,
    /// The particle's stable global id.
    pub id: u64,
    /// Which field tripped the sentinel (`"force"`, `"pos"`, `"vel"`,
    /// or `"mass"`).
    pub field: &'static str,
}

impl NonFiniteBlame {
    /// Render the flight-event detail string for this blame.
    pub fn detail(&self, rank: usize, step: u64, phase: &str) -> String {
        format!(
            "non-finite {} at rank {} step {} phase {}: particle index {} (id {})",
            self.field, rank, step, phase, self.index, self.id
        )
    }
}

/// Scan force accumulators only — the post-reduction sentinel, run after
/// the column sum-reduce and before the integrator consumes the forces.
/// Returns the first offender, or `None` if every force is finite.
pub fn scan_forces(particles: &[Particle]) -> Option<NonFiniteBlame> {
    particles.iter().enumerate().find_map(|(index, p)| {
        (!p.force.is_finite()).then_some(NonFiniteBlame {
            index,
            id: p.id,
            field: "force",
        })
    })
}

/// Scan integrated state (position, velocity, mass) — the post-integrate
/// sentinel. Forces are skipped here: they were already checked by
/// [`scan_forces`] before the integrator ran, and some integrators reset
/// them. Returns the first offender, or `None` if the state is finite.
pub fn scan_state(particles: &[Particle]) -> Option<NonFiniteBlame> {
    particles.iter().enumerate().find_map(|(index, p)| {
        let field = if !p.pos.is_finite() {
            "pos"
        } else if !p.vel.is_finite() {
            "vel"
        } else if !p.mass.is_finite() {
            "mass"
        } else {
            return None;
        };
        Some(NonFiniteBlame {
            index,
            id: p.id,
            field,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_physics::Vec2;

    fn clean(n: u64) -> Vec<Particle> {
        (0..n)
            .map(|i| Particle::moving(i, Vec2::new(i as f64, 0.5), Vec2::new(0.1, -0.2)))
            .collect()
    }

    #[test]
    fn clean_state_passes_both_scans() {
        let st = clean(16);
        assert_eq!(scan_forces(&st), None);
        assert_eq!(scan_state(&st), None);
    }

    #[test]
    fn force_nan_is_blamed_with_index_and_id() {
        let mut st = clean(16);
        st[9].force.y = f64::NAN;
        let blame = scan_forces(&st).expect("sentinel must fire");
        assert_eq!(
            blame,
            NonFiniteBlame {
                index: 9,
                id: 9,
                field: "force"
            }
        );
        // The force scan does not look at integrated state…
        assert_eq!(scan_state(&st), None);
        let detail = blame.detail(2, 7, "force");
        assert!(
            detail.contains("rank 2") && detail.contains("step 7"),
            "{detail}"
        );
        assert!(detail.contains("index 9"), "{detail}");
    }

    #[test]
    fn state_scan_blames_first_offending_field() {
        let mut st = clean(8);
        st[3].vel.x = f64::INFINITY;
        st[5].pos.y = f64::NAN;
        let blame = scan_state(&st).expect("sentinel must fire");
        // First offender in slice order wins: index 3's velocity.
        assert_eq!(blame.index, 3);
        assert_eq!(blame.field, "vel");
        // …and the state scan ignores forces.
        let mut st2 = clean(4);
        st2[0].force.x = f64::NAN;
        assert_eq!(scan_state(&st2), None);
    }

    #[test]
    fn mass_corruption_is_caught() {
        let mut st = clean(4);
        st[2].mass = f64::NAN;
        assert_eq!(scan_state(&st).map(|b| b.field), Some("mass"));
    }
}

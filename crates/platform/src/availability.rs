//! Dynamic availability state of a platform under fault injection.
//!
//! The resolved [`Platform`] is immutable during a run; the
//! fault-injection subsystem instead tracks *availability* — which sites are
//! up, how many cores each has lost, and at what fraction of nominal
//! bandwidth each link runs — in this separate, cheaply indexable structure
//! owned by the simulation core.
//!
//! All three kinds of state **nest**, because independent fault processes
//! can overlap on the same target (a random outage landing inside a
//! maintenance window, two degradation processes hitting one link):
//!
//! * site outages hold a per-site down-counter; the site only comes back up
//!   when every overlapping outage has ended,
//! * partial node losses stack (LIFO); a restore returns the most recent
//!   outstanding loss, and the lost-core total is the sum of the stack,
//! * link degradations hold a counter plus the *most severe* active factor;
//!   the link only returns to nominal bandwidth when every overlapping
//!   degradation has ended.
//!
//! This makes replaying any interleaving of begin/end events idempotent and
//! order-insensitive per target.

use crate::platform::{LinkId, Platform, SiteId};

/// Availability state of one site.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteAvailability {
    /// Number of overlapping outages currently affecting the site
    /// (0 = the site is up).
    pub down_count: u32,
    /// Active partial node losses, in begin order (restores pop from the
    /// back). The site's lost-core total is the sum.
    pub active_losses: Vec<u64>,
}

/// Availability state of one link.
#[derive(Debug, Clone, PartialEq)]
struct LinkAvailability {
    /// Number of overlapping degradations currently affecting the link.
    degrade_count: u32,
    /// Current bandwidth factor (1.0 = nominal; the most severe factor of
    /// the active degradations while any are in effect).
    factor: f64,
}

impl Default for LinkAvailability {
    fn default() -> Self {
        LinkAvailability {
            degrade_count: 0,
            factor: 1.0,
        }
    }
}

/// Dynamic availability of every site and link of a platform.
#[derive(Debug, Clone, PartialEq)]
pub struct GridAvailability {
    sites: Vec<SiteAvailability>,
    links: Vec<LinkAvailability>,
}

impl GridAvailability {
    /// Everything up, at nominal capacity.
    pub fn all_up(platform: &Platform) -> Self {
        GridAvailability {
            sites: vec![SiteAvailability::default(); platform.site_count()],
            links: vec![LinkAvailability::default(); platform.links().len()],
        }
    }

    /// True when the site currently accepts and runs work.
    #[inline]
    pub fn site_up(&self, site: SiteId) -> bool {
        self.sites[site.index()].down_count == 0
    }

    /// Registers the start of an outage. Returns `true` when this outage
    /// transitions the site from up to down (the caller should kill work).
    pub fn site_down_begin(&mut self, site: SiteId) -> bool {
        let state = &mut self.sites[site.index()];
        state.down_count += 1;
        state.down_count == 1
    }

    /// Registers the end of an outage. Returns `true` when this recovery
    /// transitions the site from down to up (the caller should resume work).
    /// A recovery without a matching outage is a no-op.
    pub fn site_down_end(&mut self, site: SiteId) -> bool {
        let state = &mut self.sites[site.index()];
        if state.down_count == 0 {
            return false;
        }
        state.down_count -= 1;
        state.down_count == 0
    }

    /// Cores currently lost at the site across all active node losses.
    #[inline]
    pub fn cores_lost(&self, site: SiteId) -> u64 {
        self.sites[site.index()].active_losses.iter().sum()
    }

    /// Registers a partial node loss of `lost` cores (stacking on top of
    /// any losses already active).
    pub fn node_loss_begin(&mut self, site: SiteId, lost: u64) {
        self.sites[site.index()].active_losses.push(lost);
    }

    /// Ends the most recent outstanding node loss, returning how many cores
    /// come back (0 when no loss is active).
    pub fn node_loss_end(&mut self, site: SiteId) -> u64 {
        self.sites[site.index()].active_losses.pop().unwrap_or(0)
    }

    /// Current bandwidth factor of a link (1.0 = nominal).
    #[inline]
    pub fn link_factor(&self, link: LinkId) -> f64 {
        self.links[link.index()].factor
    }

    /// Registers a link degradation to `factor` (clamped to `(0, 1]`).
    /// Overlapping degradations keep the most severe active factor.
    pub fn link_degrade_begin(&mut self, link: LinkId, factor: f64) {
        let state = &mut self.links[link.index()];
        state.degrade_count += 1;
        state.factor = state.factor.min(factor.clamp(1e-6, 1.0));
    }

    /// Ends one link degradation; the link returns to nominal bandwidth only
    /// when no overlapping degradation remains. An end without a matching
    /// begin is a no-op.
    pub fn link_degrade_end(&mut self, link: LinkId) {
        let state = &mut self.links[link.index()];
        if state.degrade_count == 0 {
            return;
        }
        state.degrade_count -= 1;
        if state.degrade_count == 0 {
            state.factor = 1.0;
        }
    }

    /// Number of sites currently down.
    pub fn sites_down(&self) -> usize {
        self.sites.iter().filter(|s| s.down_count > 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::example_platform;

    fn availability() -> (Platform, GridAvailability) {
        let platform = Platform::build(&example_platform()).unwrap();
        let avail = GridAvailability::all_up(&platform);
        (platform, avail)
    }

    #[test]
    fn starts_all_up_at_nominal() {
        let (platform, avail) = availability();
        for s in platform.sites() {
            assert!(avail.site_up(s.id));
            assert_eq!(avail.cores_lost(s.id), 0);
        }
        for l in platform.links() {
            assert_eq!(avail.link_factor(l.id), 1.0);
        }
        assert_eq!(avail.sites_down(), 0);
    }

    #[test]
    fn outages_nest() {
        let (_, mut avail) = availability();
        let site = SiteId::new(1);
        assert!(avail.site_down_begin(site)); // up -> down
        assert!(!avail.site_down_begin(site)); // already down
        assert!(!avail.site_up(site));
        assert_eq!(avail.sites_down(), 1);
        assert!(!avail.site_down_end(site)); // still one outage left
        assert!(!avail.site_up(site));
        assert!(avail.site_down_end(site)); // down -> up
        assert!(avail.site_up(site));
        // Spurious recovery is a no-op.
        assert!(!avail.site_down_end(site));
        assert!(avail.site_up(site));
    }

    #[test]
    fn node_losses_stack_and_pop() {
        let (_, mut avail) = availability();
        let site = SiteId::new(0);
        avail.node_loss_begin(site, 100);
        avail.node_loss_begin(site, 40);
        assert_eq!(avail.cores_lost(site), 140);
        assert_eq!(avail.node_loss_end(site), 40);
        assert_eq!(avail.cores_lost(site), 100);
        assert_eq!(avail.node_loss_end(site), 100);
        assert_eq!(avail.cores_lost(site), 0);
        // Spurious restore is a no-op.
        assert_eq!(avail.node_loss_end(site), 0);
    }

    #[test]
    fn link_degradations_nest_keeping_the_most_severe_factor() {
        let (_, mut avail) = availability();
        let link = LinkId::new(0);
        avail.link_degrade_begin(link, 0.5);
        assert_eq!(avail.link_factor(link), 0.5);
        avail.link_degrade_begin(link, 0.25);
        assert_eq!(avail.link_factor(link), 0.25);
        // One process ends while the other is still active: the link must
        // stay degraded, not snap back to nominal.
        avail.link_degrade_end(link);
        assert!(avail.link_factor(link) < 1.0);
        avail.link_degrade_end(link);
        assert_eq!(avail.link_factor(link), 1.0);
        // Spurious end is a no-op; factors are clamped positive.
        avail.link_degrade_end(link);
        assert_eq!(avail.link_factor(link), 1.0);
        avail.link_degrade_begin(link, 0.0);
        assert!(avail.link_factor(link) > 0.0);
        avail.link_degrade_end(link);
    }
}

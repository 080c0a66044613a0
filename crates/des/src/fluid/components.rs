//! Connected components of the activity↔resource constraint graph.

/// Union-find over resource indices with per-root member lists, tracking the
/// connected components of the activity↔resource constraint graph.
///
/// Unions are monotone (admits only); the partition is an over-approximation
/// after retires and is re-tightened by [`ResourceComponents::reset`] plus
/// re-unioning the live activity set (see `FluidModel::rebuild_components`).
#[derive(Debug, Clone, Default)]
pub(super) struct ResourceComponents {
    parent: Vec<u32>,
    size: Vec<u32>,
    /// Member resource indices per root (unsorted; only valid at roots).
    pub(super) members: Vec<Vec<u32>>,
    /// Live activities per component (only valid at roots).
    pub(super) acts: Vec<u32>,
    /// Live activities whose route lists a resource more than once, per
    /// component (only valid at roots) — such routes disqualify the
    /// component from the single-bottleneck fast path.
    pub(super) dups: Vec<u32>,
}

impl ResourceComponents {
    pub(super) fn push_resource(&mut self) {
        let idx = self.parent.len() as u32;
        self.parent.push(idx);
        self.size.push(1);
        self.members.push(vec![idx]);
        self.acts.push(0);
        self.dups.push(0);
    }

    /// Root of `r`'s component, with path halving.
    pub(super) fn find(&mut self, mut r: u32) -> u32 {
        while self.parent[r as usize] != r {
            let grandparent = self.parent[self.parent[r as usize] as usize];
            self.parent[r as usize] = grandparent;
            r = grandparent;
        }
        r
    }

    /// Merges the components of `a` and `b`; returns the surviving root.
    pub(super) fn union(&mut self, a: u32, b: u32) -> u32 {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return ra;
        }
        let (winner, loser) = if self.size[ra as usize] > self.size[rb as usize]
            || (self.size[ra as usize] == self.size[rb as usize] && ra < rb)
        {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[loser as usize] = winner;
        self.size[winner as usize] += self.size[loser as usize];
        let mut moved = std::mem::take(&mut self.members[loser as usize]);
        self.members[winner as usize].extend_from_slice(&moved);
        moved.clear();
        self.members[loser as usize] = moved; // keep the allocation for reuse
        self.acts[winner as usize] += self.acts[loser as usize];
        self.acts[loser as usize] = 0;
        self.dups[winner as usize] += self.dups[loser as usize];
        self.dups[loser as usize] = 0;
        winner
    }

    /// Resets every resource to its own singleton component (allocations are
    /// kept so periodic rebuilds do not churn the allocator).
    pub(super) fn reset(&mut self) {
        for i in 0..self.parent.len() {
            self.parent[i] = i as u32;
            self.size[i] = 1;
            self.members[i].clear();
            self.members[i].push(i as u32);
            self.acts[i] = 0;
            self.dups[i] = 0;
        }
    }
}

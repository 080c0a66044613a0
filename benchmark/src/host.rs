//! What the benchmark reads off the host: peak memory, core count, and a
//! fixed control kernel that tells a slow simulator from a slow machine.

use std::time::Instant;

/// FNV-1a, fed in pieces: the fingerprint of deterministic outputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a of one byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.update(bytes);
    h.finish()
}

/// `VmHWM` (the kernel's resident-set high-water mark) in MB, parsed from
/// the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb / 1024.0)
}

/// Peak resident set of this process in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_vm_hwm_mb(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Cores the process may run on. The benchmark itself uses one thread.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// xoshiro256** — the benchmark's own generator (request shuffles, probe
/// inputs, control kernel), so its inputs depend on no repository code.
#[derive(Debug, Clone)]
pub struct Xoshiro {
    s: [u64; 4],
}

impl Xoshiro {
    /// Seeds the four state words from `seed` with splitmix64.
    pub fn new(seed: u64) -> Self {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        };
        Xoshiro {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn index(&mut self, n: usize) -> usize {
        (self.uniform() * n as f64) as usize % n
    }
}

/// Words in the control buffer: 64 MB, several times this box's last-level
/// cache, so the kernel exercises memory as well as the ALU.
const CONTROL_WORDS: usize = 8 << 20;

/// The host-noise control: a fixed CPU + memory kernel timed before and
/// after every repetition. Its time moves with the machine, never with the
/// simulator, so a repetition that ran while the control was slow is known
/// to be noisy instead of suspected to be.
pub struct HostControl {
    buf: Vec<u64>,
}

impl HostControl {
    /// Allocates and touches the buffer (so later runs time no page faults).
    pub fn new() -> Self {
        let mut control = HostControl {
            buf: vec![0; CONTROL_WORDS],
        };
        control.run();
        control
    }

    /// One pass: fill the buffer from xoshiro, fold it with FNV-1a by word.
    /// Returns host seconds.
    pub fn run(&mut self) -> f64 {
        let started = Instant::now();
        let mut rng = Xoshiro::new(0x5eed);
        for word in self.buf.iter_mut() {
            *word = rng.next_u64();
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &word in &self.buf {
            h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
        std::hint::black_box(h);
        started.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parser_reads_the_kb_line() {
        let status = "Name:\tcgsim\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(20.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn own_peak_rss_is_readable_and_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut pieces = Fnv::new();
        pieces.update(b"ab");
        pieces.update(b"c");
        assert_eq!(pieces.finish(), fnv1a(b"abc"));
    }

    #[test]
    fn xoshiro_is_seeded_and_in_range() {
        let mut a = Xoshiro::new(7);
        let mut b = Xoshiro::new(7);
        let mut c = Xoshiro::new(8);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..4).map(|_| c.next_u64()).collect::<Vec<_>>());
        for _ in 0..1000 {
            let u = a.uniform();
            assert!((0.0..1.0).contains(&u));
            assert!(a.index(7) < 7);
        }
    }
}

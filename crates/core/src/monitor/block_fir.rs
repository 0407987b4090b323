//! The windowed-FIR engine behind the full-convolution and family
//! monitors, evaluated a block of delayed estimates at a time.
//!
//! A monitor with delay `d` returns, at cycle `c`, the estimate
//! `est[c − d] = vdd − Σ_m h[m]·i[c − d − m]`. Every one of
//! `est[c − d] ..= est[c]` depends only on currents already pushed, so
//! once every `d + 1` cycles the engine computes the next `d + 1`
//! estimates in one pass over the kernel, with one accumulator per
//! estimate, and hands them out one per cycle. Each accumulator still
//! sums its own taps from 0.0 in ascending lag order — the order of the
//! naive per-lag walk — so every estimate is `to_bits()`-identical to
//! it. What changes is that the `d + 1` add chains are independent and
//! overlap in the FPU pipeline instead of running back to back: a
//! single chain of hundreds of dependent adds is bound by add latency,
//! not by loads or address arithmetic.
//!
//! The history is one contiguous buffer, allocated once: `taps − 1`
//! zeros (the quiescent pre-history) followed by the pushed currents.
//! When it fills, which happens only right after a block, the newest
//! `taps − 1` samples — all the next block reads from the past — move
//! back to the front.

/// Lanes of the widest block kernel; longer blocks are split into
/// runs of these (then 2, then 1).
const MAX_LANES: usize = 4;

/// A windowed FIR `vdd − Σ h[m]·x[n − m]` delayed by `lanes − 1`
/// cycles, computing `lanes` consecutive estimates per block.
#[derive(Debug, Clone)]
pub(crate) struct BlockFir {
    kernel: Box<[f64]>,
    vdd: f64,
    /// `taps − 1` samples of past history, then the current block's
    /// pushes; `hist[..end]` is live.
    hist: Box<[f64]>,
    end: usize,
    /// The last computed block of estimates, oldest first.
    out: Box<[f64]>,
    /// Next slot of `out` to hand out; `out.len()` means a block is due.
    next: usize,
}

impl BlockFir {
    /// An engine over `kernel` (lag 0 first) with estimate latency
    /// `delay` cycles. Before the first block completes it reads `vdd`.
    ///
    /// # Panics
    ///
    /// Panics when `kernel` is empty.
    pub(crate) fn new(kernel: Vec<f64>, vdd: f64, delay: usize) -> Self {
        assert!(!kernel.is_empty(), "FIR kernel must have at least one tap");
        let lanes = delay + 1;
        let past = kernel.len() - 1;
        // Room for about `taps` pushes between compactions, rounded to
        // whole blocks, so compaction copies about one sample per push.
        let blocks = kernel.len().div_ceil(lanes);
        BlockFir {
            hist: vec![0.0; past + blocks * lanes].into_boxed_slice(),
            end: past,
            kernel: kernel.into_boxed_slice(),
            vdd,
            out: vec![vdd; lanes].into_boxed_slice(),
            // The first `delay` cycles hand out the `vdd` pre-fill; the
            // first block is due on cycle `delay`.
            next: 1,
        }
    }

    /// The kernel length.
    pub(crate) fn taps(&self) -> usize {
        self.kernel.len()
    }

    /// The estimate latency in cycles.
    pub(crate) fn delay(&self) -> usize {
        self.out.len() - 1
    }

    /// Push this cycle's current and return the estimate `delay` cycles
    /// old.
    pub(crate) fn observe(&mut self, x: f64) -> f64 {
        if self.end == self.hist.len() {
            let past = self.kernel.len() - 1;
            self.hist.copy_within(self.end - past..self.end, 0);
            self.end = past;
        }
        self.hist[self.end] = x;
        self.end += 1;
        if self.next == self.out.len() {
            self.compute_block();
            self.next = 0;
        }
        let est = self.out[self.next];
        self.next += 1;
        est
    }

    /// Compute the estimates of the last `lanes` pushes into `out`.
    fn compute_block(&mut self) {
        let lanes = self.out.len();
        let taps = self.kernel.len();
        let window = &self.hist[self.end - (taps - 1 + lanes)..self.end];
        let mut lane = 0;
        while lane < lanes {
            let win = &window[lane..];
            let out = &mut self.out[lane..];
            lane += match lanes - lane {
                1 => block::<1>(&self.kernel, win, self.vdd, out),
                2 | 3 => block::<2>(&self.kernel, win, self.vdd, out),
                _ => block::<MAX_LANES>(&self.kernel, win, self.vdd, out),
            };
        }
    }

    #[cfg(test)]
    fn history_len(&self) -> usize {
        self.hist.len()
    }
}

/// `out[l] = vdd − Σ_m h[m]·win[taps − 1 + l − m]` for `l < L`: the
/// estimates of the `L` samples at `win[taps − 1..]`, each summed from
/// 0.0 in ascending `m`. Returns `L`.
fn block<const L: usize>(h: &[f64], win: &[f64], vdd: f64, out: &mut [f64]) -> usize {
    let win = &win[..h.len() + L - 1];
    let mut acc = [0.0f64; L];
    // Window `i` holds the L samples at lag `taps − 1 − i` from each
    // lane's newest, so walking the windows backwards walks m upwards.
    for (&w, xs) in h.iter().zip(win.windows(L).rev()) {
        for (a, &x) in acc.iter_mut().zip(xs) {
            *a += w * x;
        }
    }
    for (o, a) in out.iter_mut().zip(acc) {
        *o = vdd - a;
    }
    L
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{CycleSense, FamilyMonitorDesign, FullConvolutionMonitor, VoltageMonitor};
    use didt_dsp::{BoundaryMode, WaveletFamily};
    use didt_pdn::SecondOrderPdn;
    use std::collections::VecDeque;

    const DELAYS: [usize; 6] = [0, 1, 2, 3, 4, 7];
    const TAPS: [usize; 7] = [1, 7, 8, 128, 256, 300, 512];

    fn pdn() -> SecondOrderPdn {
        SecondOrderPdn::from_resonance(100e6, 2.2, 4e-4, 1.0, 3e9).unwrap()
    }

    /// Currents with NaN and ±inf spikes between finite stretches, so
    /// estimates go non-finite and must come back once the spike
    /// leaves the window.
    fn current(n: usize) -> f64 {
        match n % 997 {
            101 => f64::NAN,
            400 => f64::INFINITY,
            401 => f64::NEG_INFINITY,
            700 => f64::INFINITY,
            _ => 30.0 + 25.0 * ((n as f64) * 0.21).sin(),
        }
    }

    /// The oracle: the naive per-lag walk over the full history, then a
    /// `VecDeque` delay line pre-filled with `vdd`.
    struct Naive {
        kernel: Vec<f64>,
        vdd: f64,
        history: Vec<f64>,
        pipe: VecDeque<f64>,
    }

    impl Naive {
        fn new(kernel: Vec<f64>, vdd: f64, delay: usize) -> Self {
            Naive {
                kernel,
                vdd,
                history: Vec::new(),
                pipe: VecDeque::from(vec![vdd; delay]),
            }
        }

        fn observe(&mut self, x: f64) -> f64 {
            self.history.push(x);
            let mut droop = 0.0;
            for (m, &h) in self.kernel.iter().enumerate() {
                let lag = if m < self.history.len() {
                    self.history[self.history.len() - 1 - m]
                } else {
                    0.0
                };
                droop += h * lag;
            }
            self.pipe.push_back(self.vdd - droop);
            self.pipe.pop_front().expect("delay line is never empty")
        }
    }

    /// Bits to compare: exact for every number; any NaN maps to one
    /// value, because Rust leaves the sign and payload of a NaN result
    /// unspecified (the two paths may legally differ there).
    fn bits(x: f64) -> u64 {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    }

    /// Drive `mon` and the oracle for `cycles`, cloning the monitor
    /// halfway, mid-block whenever the delay is nonzero, and checking
    /// that the clone continues identically too.
    fn check<M: Clone>(
        what: &str,
        mut mon: M,
        observe: impl Fn(&mut M, f64) -> f64,
        mut naive: Naive,
        cycles: usize,
    ) {
        let lanes = naive.pipe.len() + 1;
        let clone_at = cycles / 2 - (cycles / 2) % lanes + lanes / 2;
        let mut twin: Option<M> = None;
        let mut non_finite = 0;
        for n in 0..cycles {
            if n == clone_at {
                twin = Some(mon.clone());
            }
            let x = current(n);
            let want = bits(naive.observe(x));
            assert_eq!(bits(observe(&mut mon, x)), want, "{what}, cycle {n}");
            if let Some(t) = twin.as_mut() {
                assert_eq!(bits(observe(t, x)), want, "{what} clone, cycle {n}");
            }
            non_finite += usize::from(!f64::from_bits(want).is_finite());
        }
        assert!(twin.is_some() && non_finite > 0, "{what}");
    }

    /// Enough cycles to compact the history at least three times, and
    /// to pass every non-finite spike of [`current`].
    fn cycles_for(fir: &BlockFir) -> usize {
        (4 * fir.history_len()).max(2 * 997)
    }

    #[test]
    fn block_engine_is_bitwise_identical_to_lag_walk() {
        let p = pdn();
        for taps in TAPS {
            let kernel = p.impulse_response(taps);
            for delay in DELAYS {
                let fir = BlockFir::new(kernel.clone(), p.vdd(), delay);
                assert_eq!((fir.taps(), fir.delay()), (taps, delay));
                let cycles = cycles_for(&fir);
                check(
                    &format!("core taps {taps} delay {delay}"),
                    fir,
                    BlockFir::observe,
                    Naive::new(kernel.clone(), p.vdd(), delay),
                    cycles,
                );
                check(
                    &format!("full-conv taps {taps} delay {delay}"),
                    FullConvolutionMonitor::new(&p, taps, delay),
                    |m, x| {
                        m.observe(CycleSense {
                            current: x,
                            voltage: 1.0,
                        })
                    },
                    Naive::new(kernel.clone(), p.vdd(), delay),
                    cycles,
                );
            }
        }
    }

    #[test]
    fn family_monitor_is_bitwise_identical_to_lag_walk() {
        let p = pdn();
        for window in [8, 128, 256, 512] {
            let design =
                FamilyMonitorDesign::new(&p, window, WaveletFamily::Db2, BoundaryMode::Symmetric)
                    .unwrap();
            let kernel = design.kernel(13).unwrap();
            for delay in DELAYS {
                let cycles = cycles_for(&BlockFir::new(kernel.clone(), p.vdd(), delay));
                check(
                    &format!("family window {window} delay {delay}"),
                    design.build(13, delay).unwrap(),
                    |m, x| {
                        m.observe(CycleSense {
                            current: x,
                            voltage: 1.0,
                        })
                    },
                    Naive::new(kernel.clone(), p.vdd(), delay),
                    cycles,
                );
            }
        }
    }

    #[test]
    fn delay_prefill_reads_vdd_then_the_oldest_estimate() {
        let mut fir = BlockFir::new(vec![1.0, 0.5], 2.0, 3);
        let outs: Vec<f64> = [1.0, 2.0, 4.0, 8.0, 16.0]
            .iter()
            .map(|&x| fir.observe(x))
            .collect();
        // est[0] = 2 − 1, est[1] = 2 − (2 + 0.5).
        assert_eq!(outs, [2.0, 2.0, 2.0, 1.0, -0.5]);
    }

    #[test]
    #[should_panic(expected = "at least one tap")]
    fn rejects_an_empty_kernel() {
        let _ = BlockFir::new(Vec::new(), 1.0, 0);
    }
}

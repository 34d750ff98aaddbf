//! The SGX execution cost model.
//!
//! The paper compares a *native* build of the controller against the SGX
//! build (Scone) and attributes the throughput gap (≈ 10–15 % at peak) to
//! three sources of overhead: enclave transitions avoided by the
//! asynchronous system-call interface, the per-call cost of that interface
//! itself, and EPC paging when the working set exceeds the usable enclave
//! memory. This module encodes those costs so that the simulated controller
//! exhibits the same *relative* behaviour.
//!
//! Costs are charged by spinning for a calibrated number of nanoseconds,
//! which keeps the charge accurate at sub-microsecond granularity (regular
//! `thread::sleep` cannot go below tens of microseconds reliably).

use std::time::{Duration, Instant};

/// Whether the controller runs natively or inside the (simulated) enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionMode {
    /// No SGX costs are charged.
    Native,
    /// SGX costs (transitions, async syscalls, paging) are charged.
    Sgx,
}

impl ExecutionMode {
    /// Human-readable label used by the benchmark tables ("Native"/"Pesos").
    pub fn label(self) -> &'static str {
        match self {
            ExecutionMode::Native => "Native",
            ExecutionMode::Sgx => "Pesos",
        }
    }
}

/// The chargeable event classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostEvent {
    /// A synchronous enclave transition (ecall/ocall round trip), charged
    /// when the asynchronous interface is bypassed: lane 0 of every joined
    /// call runs on its caller as one exit, and so do the lanes no service
    /// thread took before the caller waits (`asyscall` module docs, "The
    /// caller's lanes").
    EnclaveTransition,
    /// Submitting a system call through the asynchronous interface and
    /// collecting its result.
    AsyncSyscall,
    /// One 4 KiB page swapped between the EPC and untrusted memory.
    EpcPageFault,
    /// Copying `n` bytes across the enclave boundary (marshalling).
    BoundaryCopy(usize),
}

/// Calibrated per-event costs in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgxCostModel {
    /// Cost of a synchronous enclave transition (≈ 8 000 cycles ≈ 3 µs).
    pub transition_ns: u64,
    /// Enclave-side cost of an asynchronous system call (slot handling and
    /// queue synchronisation, ≈ 600 ns in Scone's evaluation).
    pub async_syscall_ns: u64,
    /// Cost of one EPC page fault (encrypt + evict + load, ≈ 12 µs).
    pub epc_page_fault_ns: u64,
    /// Cost per byte copied across the boundary (≈ 0.2 ns/byte on top of a
    /// plain memcpy, dominated by the MEE).
    pub boundary_copy_ns_per_kib: u64,
}

impl Default for SgxCostModel {
    fn default() -> Self {
        SgxCostModel {
            transition_ns: 3_000,
            async_syscall_ns: 600,
            epc_page_fault_ns: 12_000,
            boundary_copy_ns_per_kib: 200,
        }
    }
}

impl SgxCostModel {
    /// A model in which every cost is zero; used for the native baseline.
    pub fn zero() -> Self {
        SgxCostModel {
            transition_ns: 0,
            async_syscall_ns: 0,
            epc_page_fault_ns: 0,
            boundary_copy_ns_per_kib: 0,
        }
    }

    /// Returns the nanosecond cost of an event.
    pub fn cost_ns(&self, event: CostEvent) -> u64 {
        match event {
            CostEvent::EnclaveTransition => self.transition_ns,
            CostEvent::AsyncSyscall => self.async_syscall_ns,
            CostEvent::EpcPageFault => self.epc_page_fault_ns,
            CostEvent::BoundaryCopy(bytes) => (bytes as u64 * self.boundary_copy_ns_per_kib) / 1024,
        }
    }

    /// Charges the cost of `event` by spinning for its duration.
    pub fn charge(&self, event: CostEvent) {
        let ns = self.cost_ns(event);
        if ns == 0 {
            return;
        }
        spin_for(Duration::from_nanos(ns));
    }

    /// Charges `n` repetitions of `event` as a single spin.
    pub fn charge_n(&self, event: CostEvent, n: u64) {
        let ns = self.cost_ns(event).saturating_mul(n);
        if ns == 0 {
            return;
        }
        spin_for(Duration::from_nanos(ns));
    }
}

/// A cost model bound to an execution mode: in [`ExecutionMode::Native`]
/// nothing is charged, in [`ExecutionMode::Sgx`] the full model applies.
#[derive(Debug, Clone, Copy)]
pub struct ModeCost {
    mode: ExecutionMode,
    model: SgxCostModel,
}

impl ModeCost {
    /// Creates the bound cost model.
    pub fn new(mode: ExecutionMode, model: SgxCostModel) -> Self {
        ModeCost { mode, model }
    }

    /// The execution mode.
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// Charges `event` if the mode is SGX.
    pub fn charge(&self, event: CostEvent) {
        if self.mode == ExecutionMode::Sgx {
            self.model.charge(event);
        }
    }

    /// Charges `n` repetitions of `event` if the mode is SGX.
    pub fn charge_n(&self, event: CostEvent, n: u64) {
        if self.mode == ExecutionMode::Sgx {
            self.model.charge_n(event, n);
        }
    }

    /// Returns the cost in nanoseconds (zero in native mode).
    pub fn cost_ns(&self, event: CostEvent) -> u64 {
        match self.mode {
            ExecutionMode::Native => 0,
            ExecutionMode::Sgx => self.model.cost_ns(event),
        }
    }
}

/// Busy-waits for `d` on the calling thread; it never yields or sleeps.
pub fn spin_for(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_costs_are_positive() {
        let m = SgxCostModel::default();
        assert!(m.cost_ns(CostEvent::EnclaveTransition) > 0);
        assert!(m.cost_ns(CostEvent::AsyncSyscall) > 0);
        assert!(m.cost_ns(CostEvent::EpcPageFault) > m.cost_ns(CostEvent::AsyncSyscall));
    }

    #[test]
    fn boundary_copy_scales_with_size() {
        let m = SgxCostModel::default();
        let small = m.cost_ns(CostEvent::BoundaryCopy(1024));
        let large = m.cost_ns(CostEvent::BoundaryCopy(64 * 1024));
        assert_eq!(large, small * 64);
    }

    #[test]
    fn zero_model_charges_nothing() {
        let m = SgxCostModel::zero();
        for e in [
            CostEvent::EnclaveTransition,
            CostEvent::AsyncSyscall,
            CostEvent::EpcPageFault,
            CostEvent::BoundaryCopy(4096),
        ] {
            assert_eq!(m.cost_ns(e), 0);
        }
        // charge must return immediately.
        let start = Instant::now();
        m.charge(CostEvent::EnclaveTransition);
        assert!(start.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn native_mode_is_free() {
        let mc = ModeCost::new(ExecutionMode::Native, SgxCostModel::default());
        assert_eq!(mc.cost_ns(CostEvent::EpcPageFault), 0);
        let sgx = ModeCost::new(ExecutionMode::Sgx, SgxCostModel::default());
        assert!(sgx.cost_ns(CostEvent::EpcPageFault) > 0);
    }

    #[test]
    fn charge_actually_waits() {
        let m = SgxCostModel {
            transition_ns: 2_000_000, // 2 ms, large enough to measure.
            ..SgxCostModel::default()
        };
        let start = Instant::now();
        m.charge(CostEvent::EnclaveTransition);
        assert!(start.elapsed() >= Duration::from_millis(2));
    }

    #[test]
    fn labels() {
        assert_eq!(ExecutionMode::Native.label(), "Native");
        assert_eq!(ExecutionMode::Sgx.label(), "Pesos");
    }
}

#pragma once
// Full-system transient simulation with phase macromodels (paper Sec. 4.3).
//
// Each oscillator latch is replaced by its PPV macromodel: its entire state
// collapses to one scalar dphi_i governed by the non-averaged phase ODE
// (paper eq. 13)
//
//     d(dphi_i)/dt = (f0_i - f1) + f0_i * v_i(theta_i(t))^T b_i(t),
//     theta_i(t)   = f1 * t + dphi_i(t)            (cycles),
//
// while the memoryless interconnect (op-amp majority/NOT gates, SYNC and
// input sources) is evaluated algebraically each step — the reduced system
// of eq. (14).  Latch output waveforms are reconstructed from xs1(theta_i).
//
// Signals form a DAG built in creation order: externals (functions of t),
// latch outputs (normalized oscillator waveforms) and gates (weighted sums
// with optional inversion and soft clipping — the signal-domain equivalent
// of the breadboard's resistive-feedback op-amp gates).

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/ppv_model.hpp"
#include "numeric/ode.hpp"

namespace phlogon::core {

class PhaseSystem {
public:
    using SignalId = int;
    using LatchId = int;

    /// External scalar signal of time (REF, SYNC tones, phase-encoded data
    /// inputs...).
    SignalId addExternal(std::function<double(double)> fn, std::string label = {});

    /// Oscillator latch; returns its id.  The latch's output signal is its
    /// normalized steady-state output (xs_out(theta) - mean)/amplitude,
    /// a unit-swing waveform suitable for gate weighting.
    LatchId addLatch(PpvModel model, std::string label = {});
    /// Shared-model latch: a compiled fabric instantiates hundreds of latches
    /// from ONE characterized design, so they share the macromodel instead of
    /// each copying its PPV/xs tables (keeps memory O(1) in fabric size).
    LatchId addLatch(std::shared_ptr<const PpvModel> model, std::string label = {});
    SignalId latchOutput(LatchId latch);

    /// Weighted sum of signals, optionally inverted (a NOT in phase logic)
    /// and soft-clipped at +-clip (0 disables clipping).
    SignalId addGate(std::vector<std::pair<SignalId, double>> inputs, bool invert = false,
                     double clip = 0.0, std::string label = {});

    /// Forward reference: a signal whose target is bound later.  Needed for
    /// feedback topologies (e.g. the serial adder's cout feeds the carry
    /// flip-flop whose output feeds cout).  Every cycle must pass through a
    /// latch; purely combinational loops are rejected at bind time.
    SignalId addPlaceholder(std::string label = {});
    void bindPlaceholder(SignalId placeholder, SignalId target);

    /// Inject current  gain * signal(t - delayCycles/f1)  [amperes] into
    /// unknown `unknownIndex` of `latch`'s macromodel.  `delayCycles`
    /// implements the coupling phase shift a designer would realize with an
    /// inverter / phase network between a gate output and the oscillator
    /// injection node (see SyncLatchDesign::signalCouplingShift()).
    void connect(LatchId latch, std::size_t unknownIndex, SignalId sig, double gain,
                 double delayCycles = 0.0);

    /// Evaluate a signal at time t given latch phases (post-processing /
    /// decoding of gate outputs).
    double signalValue(SignalId id, double t, double f1, const num::Vec& dphi) const {
        return evalSignal(id, t, f1, dphi);
    }

    std::size_t latchCount() const { return latches_.size(); }
    const PpvModel& latchModel(LatchId latch) const { return *latches_.at(latch).model; }
    const std::string& latchLabel(LatchId latch) const { return latches_.at(latch).label; }
    std::size_t signalCount() const { return signals_.size(); }

    struct Result {
        bool ok = false;
        num::Vec t;
        /// dphi[i] is the (unwrapped, cycles) phase trajectory of latch i.
        std::vector<num::Vec> dphi;
        /// Reconstructed output voltage of latch i at stored point k.
        std::vector<num::Vec> vout;
    };

    /// Lanes per scheduling block of the per-latch projection loop.  Fixed,
    /// so the partition never depends on the thread count.
    static constexpr std::size_t kLaneBlock = 128;

    /// Integrate all latch phases over [t0, t1] with fixed-step RK4
    /// (`stepsPerCycle` steps per reference cycle resolves the fast-varying
    /// eq.-13 right-hand side), storing every `storeEvery`-th step plus the
    /// first and last points.  All latch phases advance as num::BatchOde
    /// lanes in lockstep: per RK stage, one Program pass per distinct
    /// coupling delay, restricted to the dependency cone of the signals that
    /// delay group reads, then a per-latch projection loop run in
    /// kLaneBlock-lane blocks across the thread pool (PHLOGON_THREADS).
    /// Bitwise identical to num::rk4 over evalSignal at any fabric size and
    /// thread count: see DESIGN.md §14.  Throws std::logic_error if any
    /// placeholder is unbound.
    Result simulate(double f1, double t0, double t1, const num::Vec& dphi0,
                    std::size_t stepsPerCycle = 64, std::size_t storeEvery = 1) const;

    /// Forwards to simulate().  Kept only because the benchmark's fabric
    /// workloads (perfbench/src/fabric.cpp) call it by this name, and that
    /// code changes only with the benchmark; new code calls simulate().
    Result simulateBatched(double f1, double t0, double t1, const num::Vec& dphi0,
                           std::size_t stepsPerCycle = 64, std::size_t storeEvery = 1) const {
        return simulate(f1, t0, t1, dphi0, stepsPerCycle, storeEvery);
    }

    /// Compiled evaluation program over the signal DAG: every signal placed
    /// in one topologically-sorted order, placeholders read through, gate
    /// fan-in read from a dense value array.  eval() computes signals at one
    /// (t, dphi) in a single sparse pass — each signal exactly once, with
    /// the same per-signal arithmetic (and per-gate summation order) as
    /// evalSignal, so values are bitwise identical to the recursive path.
    ///
    /// The Program borrows the PhaseSystem: it stays valid only while the
    /// system outlives it and no signals/latches are added.  Construction
    /// throws std::logic_error if any placeholder is unbound (signalValue
    /// defers that error to the evaluation that reaches it).
    class Program {
    public:
        explicit Program(const PhaseSystem& sys);
        /// out[id] = value of signal id at time t; resized to signalCount().
        void eval(double t, double f1, const num::Vec& dphi, std::vector<double>& out) const {
            eval(t, f1, dphi.data(), order_, out);
        }
        /// Same pass restricted to `sub`, a sub-order from cone(): only
        /// out[id] for id in `sub` is written.
        void eval(double t, double f1, const double* dphi, const std::vector<SignalId>& sub,
                  std::vector<double>& out) const;
        /// The evaluation order filtered to the signals `roots` depend on
        /// (roots included; latch outputs and externals end a path).
        std::vector<SignalId> cone(const std::vector<SignalId>& roots) const;

    private:
        const PhaseSystem* sys_;
        std::vector<SignalId> order_;  ///< dependency-sorted evaluation order
    };

private:
    struct Latch {
        std::shared_ptr<const PpvModel> model;  ///< shared across fabric latches
        std::string label;
        SignalId outputSignal = -1;
    };
    struct Connection {
        std::size_t unknownIndex;
        SignalId signal;
        double gain;
        double delayCycles;
    };
    enum class SignalKind { External, LatchOutput, Gate, Placeholder };
    struct Signal {
        SignalKind kind;
        std::string label;
        std::function<double(double)> external;           // External
        LatchId latch = -1;                               // LatchOutput
        std::vector<std::pair<SignalId, double>> inputs;  // Gate
        bool invert = false;
        double clip = 0.0;
        SignalId target = -1;  // Placeholder
    };

    /// True when `id` combinationally depends on `of` (latch outputs break
    /// the dependency).
    bool dependsOn(SignalId id, SignalId of) const;

    /// Recursively evaluate one signal at time t.  Latch phases dphi are the
    /// slow state; a latch output at (possibly delayed) time t' uses
    /// theta = f1*t' + dphi (dphi treated as constant over a delay of a
    /// fraction of a cycle).
    double evalSignal(SignalId id, double t, double f1, const num::Vec& dphi) const;

    std::vector<Latch> latches_;
    std::vector<std::vector<Connection>> connections_;  // per latch
    std::vector<Signal> signals_;
};

}  // namespace phlogon::core

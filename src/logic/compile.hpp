#pragma once
// Netlist -> phase-system compiler: lower a LogicNetlist onto oscillator
// phase logic (core::PhaseSystem), one SHIL latch pair per flip-flop and
// majority/NOT phase gates for the combinational network.
//
// Lowering rules (DESIGN.md section 14):
//   * input net      -> REF-aligned unit tone scheduled from its bit column
//                       (one bit per clock slot, encoding.hpp's dataSignal);
//   * dff            -> master-slave pair of phase D latches (same S/R
//                       majority arithmetic as addPhaseDLatch) sharing ONE
//                       SYNC external and ONE const0/const1 pair across the
//                       whole fabric; the slave output is the q net;
//   * maj            -> soft-clipped majority gate + unit renormalizer;
//   * and/or (nand/nor) -> majority against a (fan-in - 1)-weighted constant
//                       0/1 tone, optionally inverted;
//   * xor/xnor       -> two-input cells chained left to right; each cell
//                       uses the serial adder's identity
//                       xor(a,b) = MAJ(a, b, 0, 2*~AND(a,b));
//   * buf/not        -> unit-weight (optionally inverting) gate, no clip.
//
// Clocking matches the serial adder: CLK encodes 0 during the first half of
// each slot (slaves transparent, state visible) and 1 during the second
// (masters sample), so decoded outputs at 45% of a slot reflect
// out_k = f(in_k, state_k) and state advances as state_{k+1} = d(in_k,
// state_k) — exactly LogicNetlist::step.

#include <vector>

#include "core/phase_system.hpp"
#include "logic/fabric.hpp"
#include "phlogon/flipflop.hpp"

namespace phlogon::logic {

struct FabricCompileOptions {
    /// Clock-slot duration in reference cycles (one input vector per slot).
    double bitPeriodCycles = 100.0;
    /// Combinational gate soft-clip level.
    double gateClip = 0.5;
    /// Latch write-path options (shared by every flip-flop).
    PhaseDLatchOptions latch{};
    /// Structural fan-in limit forwarded to LogicNetlist::validate.
    std::size_t maxFanIn = 9;
};

/// One flip-flop's lowered latches.
struct FabricDffRefs {
    core::PhaseSystem::LatchId master = -1;
    core::PhaseSystem::LatchId slave = -1;
    core::PhaseSystem::SignalId q = -1;  ///< slave output = the q net's signal
};

/// A netlist lowered onto a PhaseSystem with a concrete input schedule.
struct CompiledFabric {
    LogicNetlist netlist;
    core::PhaseSystem sys;
    PhaseReference ref;
    double bitPeriod = 0.0;
    std::size_t slots = 0;
    /// Input bit matrix the fabric was compiled with: schedule[k][i] is
    /// input i during slot k.
    std::vector<std::vector<int>> schedule;
    /// Phase signal carrying each net (indexed by NetId).
    std::vector<core::PhaseSystem::SignalId> netSignals;
    /// Output net signals, aligned with netlist.outputs().
    std::vector<core::PhaseSystem::SignalId> outputSignals;
    /// Lowered flip-flops, aligned with netlist.dffs().
    std::vector<FabricDffRefs> dffs;
    /// Start phases (all latches at the logic-0 lock phase): pass to
    /// PhaseSystem::simulate.
    num::Vec initialDphi;

    double tEnd() const { return static_cast<double>(slots) * bitPeriod; }
    /// Decode instant for slot k: 45% into the slot, when CLK still encodes
    /// 0 (state visible through the transparent slaves) and the
    /// combinational network has settled.
    double decodeTime(std::size_t slot) const {
        return (static_cast<double>(slot) + 0.45) * bitPeriod;
    }
};

/// Lower `netlist` onto phase logic.  `inputVectors[k]` holds the bit of
/// every primary input during clock slot k (aligned with
/// netlist.inputs()); the number of vectors sets the run length.  Validates
/// the netlist first (FabricError on structural problems).
CompiledFabric compileFabric(const LogicNetlist& netlist, const SyncLatchDesign& design,
                             std::vector<std::vector<int>> inputVectors,
                             const FabricCompileOptions& opt = {});

/// Decode every clock slot of a finished transient: returns one bit vector
/// per slot, aligned with netlist.outputs().  Signals are evaluated through
/// a PhaseSystem::Program (one sparse pass per sample), so decoding deep
/// gate cones stays linear in fabric size.
std::vector<std::vector<int>> decodeFabricRun(const CompiledFabric& fab,
                                              const core::PhaseSystem::Result& res);

/// Quasi-static fabric simulator: evaluates the compiled phase network with
/// every latch pinned at its ideal lock phase instead of integrating the
/// phase ODEs.  This checks the *lowered gate network* (weights, constants,
/// normalizers, clock gating, the full signal DAG) against Boolean
/// semantics at a cost of microseconds per vector — the workhorse of the
/// random-vector equivalence harness; full-ODE runs spot-check dynamics on
/// top.
class FabricIdealSim {
public:
    explicit FabricIdealSim(const CompiledFabric& fab);
    /// Decode the outputs of the next clock slot and advance the latch
    /// state from the decoded flip-flop D nets.  Returns bits aligned with
    /// netlist.outputs().
    std::vector<int> step();
    /// Current flip-flop state (aligned with netlist.dffs()).
    const std::vector<int>& state() const { return state_; }
    std::size_t slot() const { return slot_; }

private:
    const CompiledFabric* fab_;
    core::PhaseSystem::Program prog_;
    std::vector<int> state_;
    std::size_t slot_ = 0;
    std::vector<double> vals_;  // scratch: per-signal values at one sample
};

}  // namespace phlogon::logic

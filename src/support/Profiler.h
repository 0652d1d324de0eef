//===- support/Profiler.h - Hierarchical virtual-cycle phase profiler -----===//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A hierarchical phase profiler over the *virtual* clock: RAII scoped
/// regions (`PROF_SCOPE("aos/sample")`) form a tree of phases, and every
/// cycle the engine charges to the modeled machine is attributed to the
/// phase stack active at the charge.  Because attribution rides the virtual
/// clock — never the host clock — two identical runs produce byte-identical
/// profiles, and enabling the profiler cannot perturb the machine it
/// measures: profiled and unprofiled runs are cycle-identical by
/// construction (pinned by tests/test_profiler.cpp).
///
/// Cost model:
///
///   * Not installed (the runtime flag is "a profiler is installed on this
///     thread"), every site costs one pointer test.
///   * Installed, sites cost host time only; zero virtual cycles ever.
///
/// The tree distinguishes two roots by convention:
///
///   run         everything charged to the execution thread's clock; the
///               subtree total equals the sum of RunResult::Cycles over the
///               profiled runs (tested).
///   offline     modeled costs of work the paper excludes from application
///               runtime (classification-tree rebuilds, cross-validation,
///               repository strategy derivation).
///
/// Snapshots flatten the tree into (stack, exclusive cycles, enter count)
/// rows sorted by stack, and export three formats: canonical JSON (the
/// input of tools/evm-prof), collapsed-stack text (flamegraph.pl
/// compatible), and speedscope JSON (https://speedscope.app).
///
//===----------------------------------------------------------------------===//

#ifndef EVM_SUPPORT_PROFILER_H
#define EVM_SUPPORT_PROFILER_H

#include "support/Error.h"

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace evm {

/// An immutable, flattened copy of a profiler's phase tree.
class PhaseTreeSnapshot {
public:
  /// One phase: the ';'-joined stack of frame names from the root, the
  /// cycles attributed to exactly this node (exclusive — descendants are
  /// separate entries), and how many times the phase was entered.
  struct Entry {
    std::string Stack;
    uint64_t Cycles = 0;
    uint64_t Count = 0;
  };

  /// Entries sorted by Stack (byte order); deterministic for identical
  /// attribution sequences.
  const std::vector<Entry> &entries() const { return Entries; }
  bool empty() const { return Entries.empty(); }

  /// Sum of exclusive cycles of \p Stack and every descendant ("run" ->
  /// everything charged to the execution clock).
  uint64_t totalUnder(std::string_view Stack) const;

  /// Exclusive cycles of exactly \p Stack (0 when absent).
  uint64_t cyclesAt(std::string_view Stack) const;

  /// Canonical JSON: {"phases":[{"stack":"run;interp","cycles":N,
  /// "count":N},...]} with entries in snapshot (stack-sorted) order.
  /// Byte-deterministic; parsePhaseTreeJson is the exact inverse.
  std::string renderJson() const;

  /// flamegraph.pl-compatible collapsed stacks: one "stack cycles" line
  /// per entry with nonzero cycles, in stack-sorted order.
  std::string renderCollapsed() const;

  /// speedscope JSON (schema https://www.speedscope.app/file-format-schema.json):
  /// a "sampled" profile whose samples are the nonzero-cycle entries,
  /// weighted in virtual cycles.  \p Name labels the profile.
  std::string renderSpeedscope(const std::string &Name) const;

private:
  friend class PhaseProfiler;
  friend ErrorOr<PhaseTreeSnapshot> parsePhaseTreeJson(const std::string &);
  std::vector<Entry> Entries;
};

/// Parses the canonical JSON back (also accepts a larger document that
/// embeds the "phases" array, e.g. evm_cli's --profile-out output or a
/// bench --json document).  Fails on malformed phase objects.
ErrorOr<PhaseTreeSnapshot> parsePhaseTreeJson(const std::string &Text);

/// The live phase tree.  Single-threaded by design: all virtual-clock
/// accounting in this codebase happens on the execution thread, so the
/// profiler is installed per thread and never locked.  Frame names must
/// not contain ';' or '"' (they are stack separators / JSON-quoted
/// verbatim).
class PhaseProfiler {
public:
  PhaseProfiler();

  /// The profiler installed on this thread, or null.
  static PhaseProfiler *current() { return Installed; }

  /// Pushes a child frame named \p Name under the current node (creating
  /// it on first entry) and bumps its enter count.  Re-entering the
  /// current node's own name (self-recursion) reuses the node instead of
  /// deepening, and past kMaxDepth frames new names stop creating nodes —
  /// both keep recursive workloads from growing unbounded trees.
  void enter(std::string_view Name);

  /// Pops the frame pushed by the matching enter().
  void exit();

  /// Attributes \p Cycles to the current node (the synthetic root when no
  /// scope is active — exported as the "(unattributed)" stack).
  void charge(uint64_t Cycles);

  /// Attributes \p Cycles / \p Count to the node at \p Path (absolute,
  /// from the root), creating intermediate nodes as needed.  The current
  /// stack is unaffected.  For work that never runs under a scope, such as
  /// the repository's offline run folding.
  void chargeAt(std::initializer_list<std::string_view> Path,
                uint64_t Cycles, uint64_t Count = 0);

  /// Moves \p Cycles already attributed to the node at \p Path into its
  /// child \p Child (creating it) and bumps the child's count — post-hoc
  /// refinement of a lump charge (the evolvable VM splits the engine's
  /// pre-run "overhead" charge into xicl/ml shares this way).  Moves at
  /// most what the parent holds; returns the cycles actually moved.
  uint64_t attributeChild(std::initializer_list<std::string_view> Path,
                          std::string_view Child, uint64_t Cycles,
                          uint64_t Count = 1);

  /// attributeChild against the *current* scope instead of an absolute
  /// path (the engine splits a compile's lump across the pipeline's
  /// passes while still inside the compile scope).
  uint64_t splitToChild(std::string_view Child, uint64_t Cycles,
                        uint64_t Count = 1);

  /// Drops all nodes and attribution (the scope stack must be empty).
  void reset();

  /// Flattens and sorts the whole tree (see PhaseTreeSnapshot), so take it
  /// once at the end rather than per run; unaffected by currently-open
  /// scopes.
  PhaseTreeSnapshot snapshot() const;

  /// Depth bound beyond which enter() stops creating nodes and reuses the
  /// current one (deep mutual recursion in the guest program).
  static constexpr int kMaxDepth = 96;

private:
  friend class ProfilerInstallGuard;

  struct Node {
    std::string Name;
    int32_t Parent = -1;
    int32_t FirstChild = -1;
    int32_t NextSibling = -1;
    uint64_t Cycles = 0;
    uint64_t Count = 0;
  };

  /// Finds or creates \p Name under \p Parent; returns its index.
  int32_t childOf(int32_t Parent, std::string_view Name);

  std::vector<Node> Nodes;    ///< Nodes[0] is the synthetic root ("")
  std::vector<int32_t> Stack; ///< open scopes; Stack.back() = current
  /// constinit (here and at the definition) lets every translation unit
  /// access the variable directly instead of through a TLS wrapper call.
  static constinit thread_local PhaseProfiler *Installed;
};

/// Installs a profiler as the thread's PhaseProfiler::current() for the
/// guard's lifetime (restoring the previous one after), mirroring how the
/// engine and all instrumentation sites discover it.
class ProfilerInstallGuard {
public:
  explicit ProfilerInstallGuard(PhaseProfiler *P);
  ~ProfilerInstallGuard();
  ProfilerInstallGuard(const ProfilerInstallGuard &) = delete;
  ProfilerInstallGuard &operator=(const ProfilerInstallGuard &) = delete;

private:
  PhaseProfiler *Previous;
};

/// RAII scope over PhaseProfiler::current().  Null-safe: without an
/// installed profiler the constructor is one pointer test.
class ScopedPhase {
public:
  explicit ScopedPhase(std::string_view Name)
      : Profiler(PhaseProfiler::current()) {
    if (Profiler)
      Profiler->enter(Name);
  }
  ~ScopedPhase() {
    if (Profiler)
      Profiler->exit();
  }
  ScopedPhase(const ScopedPhase &) = delete;
  ScopedPhase &operator=(const ScopedPhase &) = delete;

private:
  PhaseProfiler *Profiler;
};

#define EVM_PROF_CONCAT_IMPL(A, B) A##B
#define EVM_PROF_CONCAT(A, B) EVM_PROF_CONCAT_IMPL(A, B)
/// Opens a named phase for the rest of the enclosing block.
#define PROF_SCOPE(NAME)                                                     \
  ::evm::ScopedPhase EVM_PROF_CONCAT(ProfScope_, __LINE__)(NAME)

} // namespace evm

#endif // EVM_SUPPORT_PROFILER_H

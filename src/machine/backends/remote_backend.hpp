// Remote-memory paging backend (SystemKind::kRemoteMemory, Felten &
// Zahorjan [3]): swap-outs park in another node's spare frames when any
// exist, falling back to the disks when none do — the configuration the
// paper argues cannot help out-of-core multiprocessor workloads. Guest
// pages are evicted (to disk) ahead of the donor's own working set.
#pragma once

#include <deque>
#include <vector>

#include "machine/backends/io_backend.hpp"

namespace nwc::machine {

class RemoteBackend : public IoBackend {
 public:
  explicit RemoteBackend(Machine& m);

  sim::Task<> swapOut(sim::NodeId n, sim::PageId page, bool force_disk) override;
  bool takeGuestVictim(sim::NodeId n) override;
  bool fetchableState(vm::PageState s) const override {
    return s == vm::PageState::kDisk || s == vm::PageState::kRemote;
  }
  FetchPlan planFetch(sim::PageId page, const vm::PageEntry& e) override;
  sim::Task<bool> fetch(int cpu, sim::PageId page, const FetchPlan& plan,
                        obs::AttrCtx& actx) override;
  void checkInvariants(std::ostream& bad) const override;

  /// Guest pages parked at node `n`, oldest first (white-box tests).
  const std::deque<sim::PageId>& guestsAt(sim::NodeId n) const {
    return remote_stored_[static_cast<std::size_t>(n)];
  }

 private:
  /// Node with spare frames beyond its reserve (excluding `self`); kNoNode
  /// when every node is fully committed — the paper's expected situation.
  sim::NodeId findSpareDonor(sim::NodeId self) const;
  /// Pull from the donor's memory; returns false (no controller-cache hit).
  sim::Task<bool> fetchFromRemote(int cpu, sim::PageId page, sim::NodeId holder,
                                  obs::AttrCtx& actx);

  std::vector<std::deque<sim::PageId>> remote_stored_;  // guests per node
};

}  // namespace nwc::machine

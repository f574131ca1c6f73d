#include "layers.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <random>

#include "block_driver.hpp"
#include "io/disk_cache.hpp"
#include "io/pfs.hpp"
#include "mem/cache.hpp"
#include "mem/directory.hpp"
#include "mem/tlb.hpp"
#include "sim/engine.hpp"
#include "sim/fifo_server.hpp"
#include "stats.hpp"
#include "vm/page_table.hpp"

namespace perfbench {

using nwc::machine::MachineConfig;

MachineConfig benchConfig(std::uint64_t seed) {
  MachineConfig cfg;
  cfg.withSystem(nwc::machine::SystemKind::kNWCache,
                 nwc::machine::Prefetch::kOptimal);
  cfg.seed = seed;
  return cfg;
}

nwc::net::MeshParams meshParams(const MachineConfig& cfg) {
  nwc::net::MeshParams p;
  p.num_nodes = cfg.num_nodes;
  p.link_bytes_per_sec = cfg.net_link_bps;
  p.pcycle_ns = cfg.pcycle_ns;
  p.hop_latency = cfg.hop_latency;
  return p;
}

nwc::ring::RingParams ringParams(const MachineConfig& cfg) {
  nwc::ring::RingParams p;
  p.channels = cfg.ring_channels;
  p.channel_capacity_bytes = cfg.ring_channel_bytes;
  p.round_trip_us = cfg.ring_round_trip_us;
  p.bytes_per_sec = cfg.ring_bps;
  p.pcycle_ns = cfg.pcycle_ns;
  p.page_bytes = cfg.page_bytes;
  return p;
}

namespace {

// Keeps driver results observable so the optimizer cannot drop the calls.
volatile std::uint64_t g_sink = 0;

// Page invalidations per timed batch of the invalidatePage driver.
constexpr std::size_t kInvalidateBatch = 4096;

// A page-grain view of the traffic: one entry each time a cpu moves to
// another page (every request, for a block store).
struct PageRef {
  int cpu;
  nwc::sim::PageId page;
  bool write;
};

struct Streams {
  std::vector<Ref> cpu0;        // the first cpu's references: one node's caches and TLB
  std::vector<Ref> l2_misses;   // references that miss their cpu's L2: directory traffic
  std::vector<PageRef> pages;   // page changes, all cpus
  nwc::sim::PageId max_page = 0;
};

Streams splitTraffic(const MachineConfig& cfg, const Traffic& t) {
  Streams s;
  if (t.refs.empty()) return s;
  const int first_cpu = t.refs.front().cpu;
  std::vector<nwc::mem::SetAssocCache> l2(static_cast<std::size_t>(cfg.num_nodes),
                                          nwc::mem::SetAssocCache(cfg.l2));
  std::vector<nwc::sim::PageId> last(static_cast<std::size_t>(cfg.num_nodes), nwc::sim::kNoPage);
  for (const Ref& r : t.refs) {
    const auto cpu = static_cast<std::size_t>(r.cpu);
    if (r.cpu == first_cpu) s.cpu0.push_back(r);
    if (!l2[cpu].access(r.addr, r.write).hit) s.l2_misses.push_back(r);
    const auto page = static_cast<nwc::sim::PageId>(r.addr / cfg.page_bytes);
    if (page != last[cpu]) {
      s.pages.push_back(PageRef{r.cpu, page, r.write});
      last[cpu] = page;
    }
    s.max_page = std::max(s.max_page, page);
  }
  return s;
}

double timeCalls(std::uint64_t calls, const std::function<void()>& body) {
  const std::uint64_t t0 = hostNowNs();
  body();
  const std::uint64_t t1 = hostNowNs();
  return static_cast<double>(t1 - t0) / static_cast<double>(calls);
}

// One timed batch: returns ns per call. Component state persists across a
// driver's batches, so after the first the caches and tables are warm.
struct Driver {
  const char* name;
  std::function<double()> batch;
};

std::vector<Driver> makeDrivers(const MachineConfig& cfg, const Traffic& traffic) {
  const auto st = std::make_shared<const Streams>(splitTraffic(cfg, traffic));
  const bool through_caches = traffic.shape == Shape::kKernel;
  std::vector<Driver> d;

  // Per reference: L1 probe, and on a miss the L1 fill plus the L2 access
  // (the access fast path's cache work), on one node's caches.
  {
    auto l1 = std::make_shared<nwc::mem::SetAssocCache>(cfg.l1);
    auto l2 = std::make_shared<nwc::mem::SetAssocCache>(cfg.l2);
    d.push_back({"mem.cache.access_ns", [st, l1, l2] {
      return timeCalls(st->cpu0.size(), [&] {
        std::uint64_t hits = 0;
        for (const Ref& r : st->cpu0) {
          if (l1->accessIfHit(r.addr, r.write)) {
            ++hits;
          } else {
            hits += l1->access(r.addr, r.write).hit + l2->access(r.addr, r.write).hit;
          }
        }
        g_sink = g_sink + hits;
      });
    }});
  }

  // Per reference: one TLB lookup, plus an insert on a miss.
  {
    auto tlb = std::make_shared<nwc::mem::Tlb>(cfg.tlb_entries);
    const std::uint64_t page_bytes = cfg.page_bytes;
    d.push_back({"mem.tlb.op_ns", [st, tlb, page_bytes] {
      return timeCalls(st->cpu0.size(), [&] {
        std::uint64_t hits = 0;
        for (const Ref& r : st->cpu0) {
          const auto page = static_cast<nwc::sim::PageId>(r.addr / page_bytes);
          if (tlb->lookup(page)) {
            ++hits;
          } else {
            tlb->insert(page);
          }
        }
        g_sink = g_sink + hits;
      });
    }});
  }

  // Per directory operation: a read or write of each reference that misses
  // its cpu's L2, with the writeback a dirty owner produces.
  {
    auto dir = std::make_shared<nwc::mem::Directory>(cfg.num_nodes);
    const std::uint64_t line_bytes = cfg.l2.line_bytes;
    d.push_back({"mem.dir.op_ns", [st, dir, line_bytes] {
      std::uint64_t ops = 0;
      const double ns = timeCalls(1, [&] {
        std::uint64_t acts = 0;
        for (const Ref& r : st->l2_misses) {
          const std::uint64_t line = r.addr / line_bytes;
          const auto a = r.write ? dir->onWrite(r.cpu, line) : dir->onRead(r.cpu, line);
          acts += static_cast<std::uint64_t>(a.invalidations) + a.owner_flush;
          if (a.owner_flush) {
            dir->onWriteback(a.owner, line);
            ++ops;
          }
          ++ops;
        }
        g_sink = g_sink + acts;
      });
      return ns / static_cast<double>(std::max<std::uint64_t>(ops, 1));
    }});
  }

  // Per invalidatePage call (L1 and L2 alternately, as the eviction path
  // issues them on every node) over the traffic's pages in order. A
  // kernel's caches are refilled with its references before each batch; a
  // block store never fills them.
  {
    auto l1 = std::make_shared<nwc::mem::SetAssocCache>(cfg.l1);
    auto l2 = std::make_shared<nwc::mem::SetAssocCache>(cfg.l2);
    auto next = std::make_shared<std::size_t>(0);
    const std::uint64_t page_bytes = cfg.page_bytes;
    d.push_back({"mem.cache.invalidate_page_ns",
                 [st, l1, l2, next, page_bytes, through_caches] {
      if (through_caches) {
        for (const Ref& r : st->cpu0) {
          (void)l1->access(r.addr, r.write);
          (void)l2->access(r.addr, r.write);
        }
      }
      const std::size_t n = std::min(kInvalidateBatch, st->pages.size());
      return timeCalls(2 * n, [&] {
        int dirty = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t base = st->pages[*next].page * page_bytes;
          *next = (*next + 1) % st->pages.size();
          dirty += l1->invalidatePage(base, page_bytes);
          dirty += l2->invalidatePage(base, page_bytes);
        }
        g_sink = g_sink + static_cast<std::uint64_t>(dirty);
      });
    }});
  }

  // Per engine event: 16 processes each sleeping a short pseudo-random
  // delay, so the calendar holds a few distinct ticks like a machine run.
  d.push_back({"sim.event_ns", [] {
    nwc::sim::Engine eng;
    constexpr int kProcs = 16;
    constexpr int kSteps = 4096;
    for (int p = 0; p < kProcs; ++p) {
      eng.spawn([](nwc::sim::Engine& e, int id) -> nwc::sim::Task<> {
        std::uint64_t x = static_cast<std::uint64_t>(id) * 0x9e3779b97f4a7c15ULL + 1;
        for (int i = 0; i < kSteps; ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          co_await e.delay(1 + static_cast<nwc::sim::Tick>(x % 64));
        }
      }(eng, p));
    }
    const std::uint64_t t0 = hostNowNs();
    eng.run();
    const std::uint64_t t1 = hostNowNs();
    return static_cast<double>(t1 - t0) / static_cast<double>(eng.eventsProcessed());
  }});

  // Per FifoServer::request with arrivals that sometimes queue.
  {
    auto gaps = std::make_shared<std::vector<nwc::sim::Tick>>(4096);
    std::mt19937_64 rng(cfg.seed);
    for (auto& g : *gaps) g = rng() % 80;
    d.push_back({"sim.fifo_request_ns", [gaps] {
      nwc::sim::FifoServer s("bench");
      return timeCalls(gaps->size(), [&] {
        nwc::sim::Tick now = 0, done = 0;
        for (const nwc::sim::Tick g : *gaps) {
          now += g;
          done = s.request(now, 40);
        }
        g_sink = g_sink + done;
      });
    }});
  }

  // Per page-table operation: an entry lookup per reference or request,
  // and state transitions at the rate the run made them.
  {
    auto eng = std::make_shared<nwc::sim::Engine>();
    auto pt = std::make_shared<nwc::vm::PageTable>(*eng, st->max_page + 1);
    const double share = traffic.transitions_per_lookup;
    const std::uint64_t page_bytes = cfg.page_bytes;
    d.push_back({"vm.page_table_ns", [eng, pt, share, page_bytes, &traffic] {
      std::uint64_t ops = 0;
      const double ns = timeCalls(1, [&] {
        std::uint64_t resident = 0;
        double owed = 0.0;
        for (const Ref& r : traffic.refs) {
          const auto page = static_cast<nwc::sim::PageId>(r.addr / page_bytes);
          resident += pt->entry(page).state == nwc::vm::PageState::kResident;
          ++ops;
          for (owed += share; owed >= 1.0; owed -= 1.0) {
            pt->setState(page, pt->entry(page).state == nwc::vm::PageState::kResident
                                   ? nwc::vm::PageState::kDisk
                                   : nwc::vm::PageState::kResident);
            ++ops;
          }
        }
        g_sink = g_sink + resident;
      });
      return ns / static_cast<double>(ops);
    }});
  }

  // Per mesh transfer: each page change is a fault's request to the page's
  // I/O node and the page coming back, one fault after the other.
  {
    auto mesh = std::make_shared<nwc::net::MeshNetwork>(meshParams(cfg));
    auto pfs = std::make_shared<nwc::io::ParallelFileSystem>(cfg.ioNodes(), cfg.pages_per_group);
    const std::uint64_t page_bytes = cfg.page_bytes;
    d.push_back({"net.mesh.transfer_ns", [st, mesh, pfs, page_bytes] {
      return timeCalls(2 * st->pages.size(), [&] {
        nwc::sim::Tick now = 0;
        for (const PageRef& p : st->pages) {
          const nwc::sim::NodeId io = pfs->ioNodeOf(p.page);
          now = mesh->transfer(now, p.cpu, io, 16, nwc::net::TrafficClass::kControl);
          now = mesh->transfer(now, io, p.cpu, page_bytes, nwc::net::TrafficClass::kPageRead);
        }
        g_sink = g_sink + now;
      });
    }});
  }

  // Per ring operation: each cpu stages its pages onto its own channel
  // until the channel is full, then drains the oldest (an insert or a
  // remove is one call).
  {
    auto ring = std::make_shared<nwc::ring::OpticalRing>(ringParams(cfg));
    d.push_back({"nwcache.ring.op_ns", [st, ring] {
      return timeCalls(st->pages.size(), [&] {
        for (const PageRef& p : st->pages) {
          const int ch = p.cpu % ring->channels();
          if (ring->hasRoom(ch)) {
            ring->reserve(ch);
            ring->insert(ch, p.page);
          } else {
            (void)ring->remove(ch, ring->pagesOn(ch).front());
          }
        }
        g_sink = g_sink + static_cast<std::uint64_t>(ring->totalOccupancy());
      });
    }});
  }

  // Per controller-cache operation on the first disk's pages: a read is a
  // fault lookup (clean fill on a miss), a write stages a swap-out, and a
  // NACKed write drains one write batch and stages again.
  {
    auto cache = std::make_shared<nwc::io::DiskCache>(cfg.diskCacheSlots());
    nwc::io::ParallelFileSystem pfs(cfg.ioNodes(), cfg.pages_per_group);
    auto mine = std::make_shared<std::vector<PageRef>>();
    for (const PageRef& p : st->pages) {
      if (pfs.diskOf(p.page) == 0) mine->push_back(p);
    }
    d.push_back({"io.disk_cache.op_ns", [cache, mine] {
      std::uint64_t ops = 0;
      const double ns = timeCalls(1, [&] {
        std::uint64_t hits = 0;
        for (const PageRef& p : *mine) {
          ++ops;
          if (!p.write) {
            if (cache->lookup(p.page)) {
              ++hits;
            } else {
              cache->insertClean(p.page);
              ++ops;
            }
          } else if (!cache->insertDirty(p.page)) {
            cache->completeWrite(cache->planWriteBatch());
            (void)cache->insertDirty(p.page);
            ops += 3;
          }
        }
        g_sink = g_sink + hits;
      });
      return ns / static_cast<double>(std::max<std::uint64_t>(ops, 1));
    }});
  }

  return d;
}

}  // namespace

std::vector<LayerCost> measureLayers(const MachineConfig& cfg, const Traffic& traffic,
                                     double seconds) {
  const std::vector<Driver> drivers = makeDrivers(cfg, traffic);
  const auto share_ns = static_cast<std::uint64_t>(
      seconds * 1e9 / static_cast<double>(drivers.size()));
  std::vector<LayerCost> out;
  for (const Driver& drv : drivers) {
    std::vector<double> ns;
    const std::uint64_t start = hostNowNs();
    while (ns.size() < 3 || hostNowNs() - start < share_ns) ns.push_back(drv.batch());
    out.push_back(LayerCost{drv.name, median(ns), static_cast<int>(ns.size())});
  }
  return out;
}

}  // namespace perfbench

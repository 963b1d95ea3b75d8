// Recycling pools for the messaging hot path.
//
// Same discipline as op::Workspace, applied to what travels: a publish
// copies its payload ONCE into a pooled, refcounted PayloadSlab that
// every frame of the fan-out points into (Message::value is a view
// of it), and every TCP frame borrows a byte buffer that the writer
// thread hands back after the socket write. Slabs and buffers keep their
// capacity across trips, so after warm-up the pools reach the
// high-water mark of the traffic and the steady-state send/receive path
// performs zero heap allocations (pinned by tests/alloc_test.cpp).
//
// Unlike op::Workspace these pools ARE thread-safe (mutex-protected):
// a slab is filled by the sending peer thread and its last reference is
// dropped by whichever receiver recycles last (inproc receivers run on
// their own threads; TCP readers decode into slabs the peer thread
// recycles). The refcount is atomic, and the pool mutex orders a slab's
// return against its next acquire, so reuse never races a reader.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "asyncit/transport/transport.hpp"

namespace asyncit::transport {

class SlabPool;

/// One publish's payload: the base block copied once (plus any codec
/// payloads appended after it), shared read-only by every frame of the
/// fan-out. Owned by its SlabPool; `refs` counts the frames (and, during
/// staging, the publisher) still pointing into `data`.
struct PayloadSlab {
  std::vector<double> data;
  std::atomic<std::uint32_t> refs{0};
  SlabPool* home = nullptr;
};

/// Pool of payload slabs. acquire() hands back a slab holding one
/// reference, sized to the request with its previous capacity retained;
/// release() of the last reference returns it here. Slabs live as long as
/// the pool — a transport's pools therefore outlive every frame it
/// delivered.
class SlabPool {
 public:
  SlabPool() { free_.reserve(kReserve); }

  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  PayloadSlab* acquire(std::size_t doubles) {
    PayloadSlab* s = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (free_.empty()) {
        owned_.push_back(std::make_unique<PayloadSlab>());
        s = owned_.back().get();
        s->home = this;
      } else {
        s = free_.back();
        free_.pop_back();
      }
    }
    s->data.resize(doubles);
    s->refs.store(1, std::memory_order_relaxed);
    return s;
  }

  /// Slabs handed out and not yet returned (0 once every frame of every
  /// publish has been recycled — the lifetime tests' balance check).
  std::size_t outstanding() const {
    std::lock_guard<std::mutex> lock(mu_);
    return owned_.size() - free_.size();
  }

 private:
  friend void release(PayloadSlab* slab);
  void put_back(PayloadSlab* s) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(s);
  }

  static constexpr std::size_t kReserve = 64;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<PayloadSlab>> owned_;
  std::vector<PayloadSlab*> free_;
};

/// Adds `n` frame references to `slab`.
inline void retain(PayloadSlab* slab, std::uint32_t n = 1) {
  slab->refs.fetch_add(n, std::memory_order_relaxed);
}

/// Drops one reference; the last one returns the slab to its pool.
/// Null-safe (frames without a payload carry no slab).
inline void release(PayloadSlab* slab) {
  if (slab != nullptr &&
      slab->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
    slab->home->put_back(slab);
}

/// Releases every consumed message's slab reference and clears
/// `consumed` — the whole of Endpoint::recycle for slab-backed backends.
inline void release_all(std::vector<Message>& consumed) {
  for (const Message& m : consumed) release(m.slab);
  consumed.clear();
}

/// One publish staged for a slab-backed backend: `base` is copied once
/// into a slab from `pool`, and each frame's payload becomes a view into
/// it — a window of the base copy, or (codec frames, whose payload is not
/// a window of `base`) a copy of its own appended after the base. The
/// stage holds the publisher's reference to the slab until it goes out of
/// scope; backends retain() one reference per queued frame.
class StagedPublish {
 public:
  StagedPublish(SlabPool& pool, std::span<const double> base,
                std::span<const Frame> frames)
      : base_(base), cursor_(base.size()) {
    std::size_t extra = 0;
    bool any = false;
    for (const Frame& f : frames) {
      if (f.value.empty()) continue;
      any = true;
      if (!in_base(f.value)) extra += f.value.size();
    }
    if (!any) return;  // heartbeats and control frames need no storage
    slab_ = pool.acquire(base.size() + extra);
    std::copy(base.begin(), base.end(), slab_->data.begin());
  }
  ~StagedPublish() { release(slab_); }

  StagedPublish(const StagedPublish&) = delete;
  StagedPublish& operator=(const StagedPublish&) = delete;

  /// The slab view carrying payload `v` (a frame's value). Empty for an
  /// empty payload.
  std::span<const double> window(std::span<const double> v) {
    if (v.empty()) return {};
    double* data = slab_->data.data();
    if (in_base(v)) return {data + (v.data() - base_.data()), v.size()};
    std::copy(v.begin(), v.end(), data + cursor_);
    cursor_ += v.size();
    return {data + cursor_ - v.size(), v.size()};
  }

  /// Null when no frame carries a payload.
  PayloadSlab* slab() const { return slab_; }
  /// Payload doubles copied so far (the base once, plus own payloads).
  std::size_t copied() const { return slab_ != nullptr ? cursor_ : 0; }

 private:
  bool in_base(std::span<const double> v) const {
    const std::less_equal<const double*> le;
    return le(base_.data(), v.data()) &&
           le(v.data() + v.size(), base_.data() + base_.size());
  }

  std::span<const double> base_;
  PayloadSlab* slab_ = nullptr;
  std::size_t cursor_ = 0;
};

/// Pool of byte buffers (wire frames). Senders encode into a borrowed
/// frame; the writer thread recycles it after the socket write.
class BytePool {
 public:
  BytePool() { pool_.reserve(kReserve); }

  BytePool(const BytePool&) = delete;
  BytePool& operator=(const BytePool&) = delete;

  std::vector<std::uint8_t> acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (pool_.empty()) return {};
    std::vector<std::uint8_t> b = std::move(pool_.back());
    pool_.pop_back();
    return b;
  }

  void recycle(std::vector<std::uint8_t> b) {
    if (b.capacity() == 0) return;
    b.clear();
    std::lock_guard<std::mutex> lock(mu_);
    pool_.push_back(std::move(b));
  }

  std::size_t pooled() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pool_.size();
  }

 private:
  static constexpr std::size_t kReserve = 64;
  mutable std::mutex mu_;
  std::vector<std::vector<std::uint8_t>> pool_;
};

}  // namespace asyncit::transport

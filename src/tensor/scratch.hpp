// Reusable scratch-tensor pool.
//
// Hot paths that need a temporary (a GEMM pack buffer, a per-sample
// coefficient vector, an im2col staging area) borrow one from the
// thread-local pool instead of constructing a fresh Tensor: after the first
// few iterations every take() is served from a previously returned buffer
// and the steady state allocates nothing. Contents of a leased tensor are
// unspecified — callers must fully overwrite (all the *_into kernels do).
//
// The pool is thread-local, so kernel worker threads each reuse their own
// buffers with no locking; leases returned on a thread stay with that
// thread. Reuse volume is exported via the "kernel.scratch_bytes_reused" /
// "kernel.scratch_bytes_allocated" metrics counters.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <vector>

#include "tensor/tensor.hpp"

namespace stellaris::ops {

class ScratchPool {
 public:
  /// RAII lease: hands the tensor back to the pool on destruction.
  class Lease {
   public:
    Lease(Lease&& other) noexcept = default;
    Lease& operator=(Lease&& other) noexcept = default;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    Tensor& operator*() { return *t_; }
    Tensor* operator->() { return t_.get(); }

   private:
    friend class ScratchPool;
    Lease(ScratchPool* pool, std::unique_ptr<Tensor> t)
        : pool_(pool), t_(std::move(t)) {}

    ScratchPool* pool_;
    std::unique_ptr<Tensor> t_;
  };

  ScratchPool() = default;
  ScratchPool(const ScratchPool&) = delete;
  ScratchPool& operator=(const ScratchPool&) = delete;

  /// Borrow a tensor of `shape` with unspecified contents. Prefers the
  /// smallest pooled buffer whose capacity already fits; allocates only
  /// when none does. The braced shape is assigned in place, so a take
  /// served from the pool builds no heap temporary either.
  Lease take(std::initializer_list<std::size_t> shape);

  /// Buffers currently parked in the pool.
  // analyze:test-only-ok tests observe buffer reuse through it
  std::size_t pooled() const { return free_.size(); }

  /// The calling thread's pool.
  static ScratchPool& local();

 private:
  void give_back(std::unique_ptr<Tensor> t);

  std::vector<std::unique_ptr<Tensor>> free_;
};

}  // namespace stellaris::ops

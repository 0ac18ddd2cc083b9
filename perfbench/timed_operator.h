#pragma once
// Timing decorator over the `core` layer: forwards every
// CollisionOperatorBase call to a LandauOperator unchanged and records a
// span around each call that does work. ImplicitIntegrator runs on this
// decorator, so the benchmark sees the integrator's core calls from outside
// the library.

#include "core/operator.h"
#include "tracer.h"

namespace perfbench {

class TimedOperator final : public landau::CollisionOperatorBase {
public:
  TimedOperator(landau::LandauOperator& op, Tracer& tracer) : op_(op), tracer_(tracer) {}

  std::size_t n_total() const override { return op_.n_total(); }

  // A reference accessor: no work to time.
  const landau::la::CsrMatrix& mass() const override { return op_.mass(); }

  landau::la::CsrMatrix new_matrix() const override {
    Scope s(tracer_, "core.new_matrix");
    return op_.new_matrix();
  }

  void pack(const landau::la::Vec& state) override {
    Scope s(tracer_, "core.pack");
    op_.pack(state);
  }

  void add_collision(landau::la::CsrMatrix& j,
                     landau::exec::KernelCounters* counters = nullptr) override {
    Scope s(tracer_, "core.collision");
    op_.add_collision(j, counters);
  }

  void add_advection(landau::la::CsrMatrix& j, double e_z) const override {
    Scope s(tracer_, "core.advection");
    op_.add_advection(j, e_z);
  }

  landau::exec::ThreadPool& worker_pool() override { return op_.worker_pool(); }

private:
  landau::LandauOperator& op_;
  Tracer& tracer_;
};

} // namespace perfbench

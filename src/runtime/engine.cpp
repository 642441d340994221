#include "runtime/engine.hpp"

namespace swat {

namespace {

// EncoderConfig::validate runs inside the Encoder constructor, before any
// weights are built, so a bad geometry fails here with a real message.
// Every Linear packs its weights in its constructor, so building the
// encoder on `pool` makes the pack fill the first touch of every panel
// page — with a pinned per-replica pool, on the replica's NUMA node.
model::Encoder build_encoder(model::EncoderConfig cfg, ThreadPool* pool) {
  ScopedPoolBinding bind(pool);
  return model::Encoder(std::move(cfg));
}

}  // namespace

Engine::Engine(model::EncoderConfig cfg, ThreadPool* pool)
    : encoder_(build_encoder(std::move(cfg), pool)),
      packed_weight_floats_(encoder_.packed_floats()),
      pool_(pool) {}

Engine::Engine(const Engine& pack_prototype, ThreadPool* pool)
    : encoder_(pack_prototype.encoder_), pool_(pool) {}

Engine Engine::compile(model::EncoderConfig cfg, std::int64_t max_tokens) {
  Engine engine(std::move(cfg));
  engine.plan_ = engine.make_plan(max_tokens);
  return engine;
}

ExecutionPlan Engine::make_plan(std::int64_t max_tokens) const {
  SWAT_EXPECTS(max_tokens >= 1);
  ExecutionPlan plan;
  plan.max_tokens_ = max_tokens;
  plan.d_model_ = encoder_.config().d_model;
  plan.arena_.bind(encoder_.config(), max_tokens);
  plan.bound_floats_ = plan.arena_.capacity_floats();
  return plan;
}

const MatrixF& Engine::run(const MatrixF& packed,
                           std::span<const std::int64_t> offsets,
                           std::span<model::AttentionStats> stats) {
  return run(plan_, packed, offsets, stats);
}

void Engine::expect_fits(const ExecutionPlan& plan, std::int64_t rows) const {
  SWAT_EXPECTS(plan.max_tokens_ >= 1 &&
               "plan was not compiled (use Engine::compile / make_plan)");
  SWAT_EXPECTS(plan.d_model_ == encoder_.config().d_model &&
               "plan was minted for a different encoder geometry");
  SWAT_EXPECTS(rows <= plan.max_tokens_ &&
               "packed batch exceeds the plan's compiled high-water shape");
}

const MatrixF& Engine::run(ExecutionPlan& plan, const MatrixF& packed,
                           std::span<const std::int64_t> offsets,
                           std::span<model::AttentionStats> stats) const {
  expect_fits(plan, packed.rows());
  // Route every kernel fan-out of this run to the engine's pool (no-op
  // binding when pool_ is null): how one replica's work stays on that
  // replica's pinned core group without any kernel call site knowing.
  ScopedPoolBinding bind(pool_);
  return encoder_.forward_batch_into(packed, offsets, stats, plan.arena_);
}

void Engine::run_in_place(ExecutionPlan& plan, MatrixF& x,
                          std::span<const std::int64_t> offsets,
                          std::span<model::AttentionStats> stats) const {
  expect_fits(plan, x.rows());
  ScopedPoolBinding bind(pool_);  // as in run()
  encoder_.forward_in_place(x, offsets, stats, plan.arena_);
}

}  // namespace swat

#include "runtime/engine.hpp"

#include <stdexcept>
#include <string>

#include "common/dtype.hpp"

namespace swat {

// EncoderConfig::validate runs inside the Encoder constructor, before any
// weights are built, so a bad geometry fails here with a real message.
// Weights are packed here, eagerly: an Engine exists to serve, and packing
// at construction (rather than lazily on the first forward) keeps the
// first request as allocation-free as the thousandth.
Engine::Engine(model::EncoderConfig cfg, ThreadPool* pool)
    : encoder_(std::move(cfg)), pool_(pool) {
  // Pack on this engine's pool: with a pinned per-replica pool the pack
  // fill is the first touch of every panel page, binding the private
  // PackedWeight to the replica's NUMA node.
  ScopedPoolBinding bind(pool_);
  packed_weight_floats_ = encoder_.pack_weights();
}

Engine::Engine(model::EncoderConfig cfg, const Engine& pack_prototype,
               ThreadPool* pool)
    : encoder_(std::move(cfg)), pool_(pool) {
  const model::EncoderConfig& mine = encoder_.config();
  const model::EncoderConfig& theirs = pack_prototype.encoder_.config();
  // Sharing panels is only sound when the weights are bit-identical —
  // which they are exactly when the shape and the seed that generated
  // them agree. Anything else would silently serve the prototype's model.
  if (mine.d_model != theirs.d_model || mine.num_heads != theirs.num_heads ||
      mine.ffn_mult != theirs.ffn_mult || mine.layers != theirs.layers ||
      mine.weight_seed != theirs.weight_seed) {
    throw std::invalid_argument(
        "Engine: shared weight pack requires an identical model "
        "(d_model/num_heads/ffn_mult/layers/weight_seed must all match the "
        "prototype engine)");
  }
  // Same shape and seed but different panel precision is equally unsound:
  // the replica would silently stream panels rounded differently than its
  // configuration promises (fp16 replica reading fp32 panels, or worse).
  if (mine.pack_dtype != theirs.pack_dtype) {
    throw std::invalid_argument(
        std::string("Engine: shared weight pack requires matching "
                    "pack_dtype (this engine wants ") +
        std::string(dtype_name(mine.pack_dtype)) +
        ", the prototype packed " +
        std::string(dtype_name(theirs.pack_dtype)) +
        ") — repack the prototype or align EncoderConfig::pack_dtype");
  }
  encoder_.share_packs_with(pack_prototype.encoder_);
  packed_weight_floats_ = 0;  // footprint lives on the prototype
}

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
  plan.ffn_mult_ = encoder_.config().ffn_mult;
  plan.arena_.bind(encoder_.config(), max_tokens);
  plan.bound_floats_ = plan.arena_.capacity_floats();
  return plan;
}

const MatrixF& Engine::run(const MatrixF& packed,
                           std::span<const std::int64_t> offsets,
                           std::span<model::AttentionStats> stats) {
  return run(plan_, packed, offsets, stats);
}

const MatrixF& Engine::run(ExecutionPlan& plan, const MatrixF& packed,
                           std::span<const std::int64_t> offsets,
                           std::span<model::AttentionStats> stats) const {
  SWAT_EXPECTS(plan.max_tokens_ >= 1 &&
               "plan was not compiled (use Engine::compile / make_plan)");
  SWAT_EXPECTS(plan.d_model_ == encoder_.config().d_model &&
               plan.ffn_mult_ == encoder_.config().ffn_mult &&
               "plan was minted for a different encoder geometry");
  SWAT_EXPECTS(packed.rows() <= plan.max_tokens_ &&
               "packed batch exceeds the plan's compiled high-water shape");
  // Route every kernel fan-out of this run to the engine's pool (no-op
  // binding when pool_ is null): how one replica's work stays on that
  // replica's pinned core group without any kernel call site knowing.
  ScopedPoolBinding bind(pool_);
  return encoder_.forward_batch_into(packed, offsets, stats, plan.arena_);
}

}  // namespace swat

// Quickstart: compile an execution plan for a small encoder, serve a packed
// batch through it, check bit-identity against each request run alone, then
// drop one head into the SWAT functional simulator and print latency/energy
// estimates. Exits nonzero if the batch is not bit-identical.
//
//   $ ./quickstart
//
// This is the 5-minute tour of the public API:
//   EncoderConfig + Engine   - compiled zero-allocation serving path
//   ExecutionPlan            - the pre-bound activation arena
//   SwatConfig               - design-time parameters (paper Fig. 7)
//   FunctionalSimulator      - value-level model (bit-faithful fp16 datapath)
//   TimingSimulator          - cycle-level pipeline model (paper Table 1)
//   AnalyticModel            - closed-form latency/traffic
//   swat_power               - XPE-style power estimate
#include <algorithm>
#include <iostream>
#include <vector>

#include "attention/window.hpp"
#include "runtime/engine.hpp"
#include "swat/analytic.hpp"
#include "swat/functional_sim.hpp"
#include "swat/power_model.hpp"
#include "swat/timing_sim.hpp"
#include "tensor/kernels.hpp"

int main() {
  // 1. Compile an engine: a compact encoder with exact-window attention
  //    (the algorithm SWAT implements), plans bound for batches of up to
  //    256 packed tokens. Validation happens here — a bad geometry fails
  //    with an actionable message before any weight is built.
  swat::model::EncoderConfig cfg;
  cfg.d_model = 128;
  cfg.num_heads = 2;
  cfg.ffn_mult = 4;
  cfg.layers = 2;
  cfg.backend = swat::model::AttentionBackend::kWindowExact;
  cfg.swat.head_dim = 64;
  cfg.swat.window_cores = 64;
  swat::Engine engine = swat::Engine::compile(cfg, /*max_tokens=*/256);
  std::cout << "Compiled plan: " << engine.plan().max_tokens()
            << " tokens high-water, "
            << engine.plan().arena_floats() * sizeof(float) / 1024
            << " KiB activation arena\n\n";

  // 2. Pack two ragged requests (96 + 64 tokens) into one batch — offsets
  //    mark the boundary, no padding rows exist.
  swat::Rng rng(2024);
  const swat::MatrixF packed = swat::random_normal(160, cfg.d_model, rng);
  const std::vector<std::int64_t> offsets = {0, 96, 160};

  // 3. Run through the plan. Every intermediate lives in the pre-bound
  //    arena; after this warmup run the steady state allocates nothing.
  const swat::MatrixF& out = engine.run(packed, offsets);

  // 4. Batching never changes a result: each request's rows of the batch
  //    are bit-identical to that request run alone through the reference
  //    Encoder::forward — not "close", identical.
  swat::MatrixF solo(packed.rows(), cfg.d_model);
  for (std::size_t s = 0; s + 1 < offsets.size(); ++s) {
    swat::MatrixF alone(offsets[s + 1] - offsets[s], cfg.d_model);
    std::copy_n(packed.row(offsets[s]).data(), alone.size(), alone.data());
    const swat::MatrixF y = engine.encoder().forward(alone);
    std::copy_n(y.data(), y.size(), solo.row(offsets[s]).data());
  }
  const float batch_diff = swat::max_abs_diff(out, solo);
  std::cout << "Compiled batch vs solo Encoder::forward: max |diff| = "
            << batch_diff << " (must be 0)\n\n";

  // 5. Under the attention layers sits the accelerator. Run one head
  //    through the functional simulator on the paper's standard design:
  //    512 attention cores, FP16, H = 64.
  const swat::SwatConfig acc = swat::SwatConfig::longformer_512();
  std::cout << "Accelerator: " << acc.summary() << "\n";
  const std::int64_t seq_len = 1024;
  const swat::attn::HeadInput head =
      swat::attn::random_head_input(seq_len, acc.head_dim, rng);
  const swat::FunctionalSimulator sim(acc);
  const auto result = sim.run(head);

  // 6. Compare against the exact (fp32) windowed-attention oracle.
  const swat::MatrixF exact = swat::attn::band_attention(
      head, acc.window_before(), acc.window_after());
  std::cout << "Functional check vs fp32 oracle:\n"
            << "  max |error|     : " << swat::max_abs_diff(result.z, exact)
            << "\n  rel. Frobenius  : "
            << swat::relative_error(result.z, exact) << "\n";

  // 7. The dataflow claim: every input element crossed the HBM bus once.
  std::cout << "\nOff-chip traffic (one head, " << seq_len << " tokens):\n"
            << "  Q read          : " << result.q_bytes_read.count << " B\n"
            << "  K+V read        : " << result.kv_bytes_read.count << " B\n"
            << "  Z written       : " << result.z_bytes_written.count
            << " B\n  K/V rows loaded : " << result.window_core_loads
            << " (= seq_len; each row exactly once)\n";

  // 8. Latency and energy from the timing stack.
  const swat::TimingSimulator timing(acc);
  const auto t = timing.run(seq_len);
  const swat::AnalyticModel model(acc);
  std::cout << "\nTiming (cycle-level simulation):\n"
            << "  pipeline II     : " << t.row_interval.count << " cycles\n"
            << "  total           : " << t.total.count << " cycles = "
            << t.wall_time(acc.clock).milliseconds() << " ms @ "
            << acc.clock.hz / 1e6 << " MHz\n"
            << "  closed form     : " << model.head_cycles(seq_len).count
            << " cycles (must match)\n";
  std::cout << "\nPower / energy:\n"
            << "  board power     : " << swat::swat_power(acc).value << " W\n"
            << "  energy per head : "
            << swat::swat_head_energy(acc, seq_len).millijoules() << " mJ\n";
  return batch_diff == 0.0f ? 0 : 1;
}

// End-to-end encoder inference with SWAT as the attention backend.
//
// Builds a small transformer encoder twice — once with exact host window
// attention, once with every attention head routed through the SWAT
// functional simulator — runs the same token embeddings through both, and
// reports (a) how close the accelerated activations stay to the host
// reference, and (b) what the attention workload costs on the accelerator
// (scheduler timeline, traffic, energy).
#include <iostream>

#include "eval/table.hpp"
#include "model/encoder.hpp"
#include "runtime/engine.hpp"
#include "swat/power_model.hpp"
#include "swat/scheduler.hpp"
#include "tensor/kernels.hpp"

int main() {
  using swat::eval::Table;
  using namespace swat::model;

  // A compact geometry so the dense host oracle runs in seconds: d_model
  // 128, 4 heads of dim 32, 128-core SWAT band, 512-token input.
  EncoderConfig host_cfg;
  host_cfg.d_model = 128;
  host_cfg.num_heads = 4;
  host_cfg.ffn_mult = 4;
  host_cfg.layers = 4;
  host_cfg.backend = AttentionBackend::kWindowExact;
  host_cfg.swat = swat::SwatConfig();
  host_cfg.swat.head_dim = 32;
  host_cfg.swat.window_cores = 128;
  host_cfg.weight_seed = 11;

  EncoderConfig accel_cfg = host_cfg;
  accel_cfg.backend = AttentionBackend::kSwatSimulator;

  // The accelerated stack is served through a compiled Engine so its run
  // reports per-sequence attention counters (SWAT traffic included).
  const std::int64_t seq_len = 512;
  const Encoder host(host_cfg);
  swat::Engine accel = swat::Engine::compile(accel_cfg, seq_len);
  std::cout << "Encoder: " << host_cfg.layers << " layers, d_model "
            << host_cfg.d_model << ", " << host_cfg.num_heads
            << " heads; parameters: " << host.parameters() << "\n"
            << "Attention hardware: " << accel_cfg.swat.summary() << "\n\n";

  swat::Rng rng(3);
  const swat::MatrixF x = swat::random_normal(seq_len, host_cfg.d_model, rng);

  const swat::MatrixF y_host = host.forward(x);
  const std::int64_t offsets[2] = {0, seq_len};
  AttentionStats accel_stats[1];
  const swat::MatrixF& y_accel = accel.run(x, offsets, accel_stats);

  std::cout << "Activation fidelity after " << host_cfg.layers
            << " layers (fp16 datapath vs fp32 host):\n"
            << "  mean row cosine : "
            << swat::mean_row_cosine(y_accel, y_host) << "\n"
            << "  max |err|       : " << swat::max_abs_diff(y_accel, y_host)
            << "\n  rel. Frobenius  : "
            << swat::relative_error(y_accel, y_host) << "\n\n";

  std::cout << "SWAT off-chip traffic for the whole forward pass: "
            << accel_stats[0].swat_offchip_traffic.mebibytes()
            << " MiB\n\n";

  // Cost the attention workload on the accelerator with the scheduler.
  swat::Workload w;
  w.seq_len = seq_len;
  w.heads = static_cast<int>(host_cfg.num_heads);
  w.layers = host_cfg.layers;
  const swat::HeadScheduler sched(accel_cfg.swat);
  const auto serial =
      sched.schedule(w, swat::HeadScheduling::kSerialDrain);
  const auto b2b = sched.schedule(w, swat::HeadScheduling::kBackToBack);

  Table t({"schedule", "makespan (cycles)", "wall @300MHz",
           "QK utilization"});
  t.add_row({"serial drain", std::to_string(serial.makespan.count),
             Table::ms(serial.wall_time(accel_cfg.swat.clock).value),
             Table::pct(serial.bottleneck_utilization)});
  t.add_row({"back-to-back", std::to_string(b2b.makespan.count),
             Table::ms(b2b.wall_time(accel_cfg.swat.clock).value),
             Table::pct(b2b.bottleneck_utilization)});
  t.print(std::cout);

  std::cout << "\nEnergy for the attention workload: "
            << swat::energy(swat::swat_power(accel_cfg.swat),
                            b2b.wall_time(accel_cfg.swat.clock))
                   .millijoules()
            << " mJ at " << swat::swat_power(accel_cfg.swat).value
            << " W board power.\n";
  return 0;
}

// Asynchronous continuous-batching serving through swat::Server.
//
// Serves traffic the way it actually arrives: one request at a time, from
// a caller that wants its ticket back immediately.
// A background scheduler thread forms batches continuously and cuts them
// when the caps are hit, when the arrival queue goes empty — or when the
// paper's stage-latency model (Table 1) predicts the batch is already
// `max_batch_latency` expensive, so the hardware model itself decides when
// to stop waiting for more arrivals.
//
//   $ ./serving_async
//
// What to look at:
//   * the cost model's predicted per-request service time, and the batch
//     budget derived from it (~3 requests' worth here);
//   * the "batch" column: a burst submitted back-to-back is grouped up to
//     the budget, then cut — a lone straggler ships as a singleton rather
//     than waiting;
//   * "queue ms": the admission-to-execution wait each ticket absorbed;
//   * the spot check: async results are bit-identical to the sequential
//     Encoder::forward path — batching policy affects latency, never
//     results.
#include <chrono>
#include <iostream>
#include <thread>
#include <vector>

#include "eval/table.hpp"
#include "model/encoder.hpp"
#include "runtime/server.hpp"

int main() {
  using swat::eval::Table;
  using namespace swat::model;

  // A compact geometry: d_model 64, 2 heads of dim 32, 32-core SWAT band.
  EncoderConfig cfg;
  cfg.d_model = 64;
  cfg.num_heads = 2;
  cfg.ffn_mult = 2;
  cfg.layers = 2;
  cfg.backend = AttentionBackend::kFusedStreaming;
  cfg.swat = swat::SwatConfig();
  cfg.swat.head_dim = 32;
  cfg.swat.window_cores = 32;
  cfg.weight_seed = 7;

  // Price requests with the paper's pipeline model and budget each batch
  // at ~3 requests of predicted accelerator time.
  const swat::BatchCostModel cost(cfg);
  const swat::Seconds per_request = cost.request_seconds(64);

  swat::ServerOptions opt;
  opt.batching.max_batch_requests = 8;
  opt.batching.bucket_width = 64;
  opt.batching.max_batch_latency = swat::Seconds{per_request.value * 3.0};

  swat::Server server(cfg, opt);
  std::cout << "Async serving: " << cfg.layers << "-layer encoder, "
            << cfg.num_heads << " heads -> " << cfg.swat.summary() << "\n"
            << "Cost model: a 64-token request is predicted to cost "
            << per_request.microseconds() << " us on the accelerator;\n"
            << "batch budget " << opt.batching.max_batch_latency.microseconds()
            << " us (~3 requests), caps <= "
            << opt.batching.max_batch_requests << " requests / batch\n\n";

  // Eight users, arriving as a burst of six and then two stragglers.
  const std::vector<std::int64_t> lengths = {48, 112, 64, 33, 96, 128, 40, 80};
  swat::Rng rng(42);
  std::vector<swat::InferenceRequest> requests;
  for (std::size_t u = 0; u < lengths.size(); ++u) {
    swat::InferenceRequest req;
    req.id = 100 + u;
    req.input = swat::random_normal(lengths[u], cfg.d_model, rng);
    requests.push_back(std::move(req));
  }

  std::vector<swat::Server::Ticket> tickets(requests.size());
  for (std::size_t u = 0; u < requests.size(); ++u) {
    if (u == 6) {
      // The stragglers arrive a beat later — watch them land in fresh
      // batches instead of holding the burst hostage (or vice versa).
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    tickets[u] = server.submit(requests[u]);  // submit copies its argument
  }
  server.drain();

  Table t({"request", "tokens", "batch", "queue ms", "SWAT traffic",
           "model MFLOP"});
  std::vector<swat::RequestResult> results;
  for (swat::Server::Ticket& ticket : tickets) {
    results.push_back(ticket.get());
  }
  for (const swat::RequestResult& r : results) {
    t.add_row({std::to_string(r.id), std::to_string(r.counters.tokens),
               std::to_string(r.counters.batch_index),
               Table::num(r.counters.queue_delay.milliseconds()),
               Table::mb(static_cast<double>(
                   r.counters.swat_offchip_traffic.count)),
               Table::num(r.counters.model_flops / 1e6)});
  }
  t.print(std::cout);

  const swat::RuntimeTotals totals = server.totals();
  std::cout << "\nTotals: " << totals.requests << " requests, "
            << totals.tokens << " tokens in " << totals.batches
            << " batches (continuously cut — composition depends on arrival "
               "timing, results never do)\n\n";

  // Spot check: every async output is bit-identical to the sequential
  // per-request path.
  const Encoder oracle(cfg);
  bool exact = true;
  for (std::size_t u = 0; u < requests.size(); ++u) {
    exact = exact && (results[u].output == oracle.forward(requests[u].input));
  }
  std::cout << "Bit-identity vs sequential Encoder::forward (all "
            << requests.size() << " requests): "
            << (exact ? "EXACT" : "MISMATCH") << "\n";
  return exact ? 0 : 1;
}

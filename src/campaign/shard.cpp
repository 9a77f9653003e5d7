#include "campaign/shard.h"

#include <filesystem>

namespace hdiff::campaign {

std::size_t shard_of(std::string_view raw, std::size_t shards) noexcept {
  if (shards <= 1) return 0;
  return static_cast<std::size_t>(core::fnv1a64(raw)) % shards;
}

std::vector<std::size_t> shard_indices(const std::vector<PlannedCase>& planned,
                                       std::size_t shard,
                                       std::size_t shards) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < planned.size(); ++i) {
    if (shard_of(planned[i].tc.raw, shards) == shard) out.push_back(i);
  }
  return out;
}

std::string shard_result_path(const std::string& state_dir, std::size_t round,
                              std::size_t shard) {
  return state_dir + "/shards/round-" + std::to_string(round) + "-shard-" +
         std::to_string(shard) + ".result";
}

std::string render_shard_result(const ShardResult& result) {
  core::RecordWriter w;
  w.header("hdiff-shard-result-v1");
  w.line("round").dec(result.round);
  w.line("shard").dec(result.shard).dec(result.shards);
  w.line("config_sig").token(result.config_sig);
  w.line("stats").dec(result.faulted_attempts).dec(result.retry_attempts)
      .dec(result.recovered_cases).dec(result.quarantined_cases);
  // Optional observability sections: metric names are field-encoded (they
  // may embed `{label="value"}` suffixes with spaces in the values),
  // histogram rows carry raw per-bucket counts so the supervisor can merge
  // them bucket-wise, and trace events ride with the pid that emitted them.
  for (const auto& [name, value] : result.metrics.counters) {
    w.line("mc").bytes(name).dec(value);
  }
  for (const auto& [name, value] : result.metrics.gauges) {
    w.line("mg").bytes(name).dec(value);
  }
  for (const auto& row : result.metrics.histograms) {
    w.line("mh").bytes(row.name).dec(row.sum).dec(row.count)
        .dec(row.bounds.size());
    for (std::uint64_t b : row.bounds) w.dec(b);
    for (std::uint64_t c : row.buckets) w.dec(c);
  }
  if (result.trace_pid != 0) w.line("tpid").dec(result.trace_pid);
  for (const auto& e : result.trace) {
    w.line("tev").token(std::string_view(&e.ph, 1)).dec(e.tid).dec(e.ts)
        .dec(e.dur).bytes(e.name).bytes(e.cat).bytes(e.arg_key)
        .bytes(e.arg_value);
  }
  for (const auto& [index, oc] : result.outcomes) {
    w.line("case").dec(index).flag(oc.quarantined).dec(oc.signatures.size());
    for (const auto& sig : oc.signatures) {
      w.line("sig").bytes(sig.detector);
      for (const auto& component : sig.vector) w.bytes(component);
    }
  }
  // Explicit end marker: a torn tail (the non-atomic-write failure mode this
  // format defends against at parse time, on top of tmp+rename) is detected
  // even when the truncation lands exactly on a line boundary.
  w.line("end").dec(result.outcomes.size());
  return w.take();
}

bool parse_shard_result(std::string_view text, ShardResult* out) {
  *out = ShardResult{};
  core::RecordReader r(text);
  if (!r.header("hdiff-shard-result-v1") || r.record().size() != 0) {
    return false;
  }
  CaseOutcome* open_case = nullptr;
  std::size_t open_sigs = 0;
  // The previous case got every signature line its case= line announced.
  const auto case_closed = [&] {
    return open_case == nullptr || open_case->signatures.size() == open_sigs;
  };
  while (r.next()) {
    const core::Record& line = r.record();
    const std::string_view key = line.key();
    const std::size_t n = line.size();
    bool ok = true;
    if (key == "round") {
      ok = n == 1 && line.dec(0, &out->round);
    } else if (key == "shard") {
      ok = n == 2 && line.dec(0, &out->shard) && line.dec(1, &out->shards);
    } else if (key == "config_sig") {
      out->config_sig = line.value();
    } else if (key == "stats") {
      ok = n == 4 && line.dec(0, &out->faulted_attempts) &&
           line.dec(1, &out->retry_attempts) &&
           line.dec(2, &out->recovered_cases) &&
           line.dec(3, &out->quarantined_cases);
    } else if (key == "mc") {
      auto& [name, value] = out->metrics.counters.emplace_back();
      ok = n == 2 && line.bytes(0, &name) && line.dec(1, &value);
    } else if (key == "mg") {
      auto& [name, value] = out->metrics.gauges.emplace_back();
      ok = n == 2 && line.bytes(0, &name) && line.dec(1, &value);
    } else if (key == "mh") {
      // <name> <sum> <count> <nbounds>, nbounds bounds, then nbounds+1
      // bucket counts (overflow last).
      obs::Registry::HistogramRow& row =
          out->metrics.histograms.emplace_back();
      std::size_t nbounds = 0;
      ok = n >= 5 && (n - 5) % 2 == 0 && line.bytes(0, &row.name) &&
           line.dec(1, &row.sum) && line.dec(2, &row.count) &&
           line.dec(3, &nbounds) && nbounds == (n - 5) / 2;
      for (std::size_t i = 4; ok && i < n; ++i) {
        auto& into = i < 4 + nbounds ? row.bounds : row.buckets;
        ok = line.dec(i, &into.emplace_back());
      }
    } else if (key == "tpid") {
      ok = n == 1 && line.dec(0, &out->trace_pid);
    } else if (key == "tev") {
      obs::TraceEvent& e = out->trace.emplace_back();
      ok = n == 8 && line.field(0).size() == 1 && line.dec(1, &e.tid) &&
           line.dec(2, &e.ts) && line.dec(3, &e.dur) &&
           line.bytes(4, &e.name) && line.bytes(5, &e.cat) &&
           line.bytes(6, &e.arg_key) && line.bytes(7, &e.arg_value);
      if (ok) e.ph = line.field(0)[0];
    } else if (key == "case") {
      std::size_t index = 0;
      CaseOutcome oc;
      oc.executed = true;
      ok = case_closed() && n == 3 && line.dec(0, &index) &&
           !out->outcomes.count(index) && line.flag(1, &oc.quarantined) &&
           line.dec(2, &open_sigs);
      if (ok) open_case = &out->outcomes.emplace(index, oc).first->second;
    } else if (key == "sig") {
      ok = open_case != nullptr && open_case->signatures.size() < open_sigs &&
           n >= 1;
      if (ok) {
        Signature& sig = open_case->signatures.emplace_back();
        ok = line.bytes(0, &sig.detector);
        for (std::size_t i = 1; ok && i < n; ++i) {
          ok = line.bytes(i, &sig.vector.emplace_back());
        }
      }
    } else if (key == "end") {
      // Explicit end marker: the last line, counting every case.
      std::size_t cases = 0;
      return case_closed() && n == 1 && line.dec(0, &cases) &&
             cases == out->outcomes.size() && r.done();
    } else {
      ok = false;
    }
    if (!ok) return false;
  }
  return false;  // torn or malformed before the end marker
}

bool write_shard_result(const std::string& state_dir,
                        const ShardResult& result) {
  std::error_code ec;
  std::filesystem::create_directories(state_dir + "/shards", ec);
  if (ec) return false;
  return write_file_atomic_durable(
      shard_result_path(state_dir, result.round, result.shard),
      render_shard_result(result));
}

bool load_shard_result(const std::string& state_dir, std::size_t round,
                       std::size_t shard, std::size_t shards,
                       const std::string& config_sig, ShardResult* out) {
  std::string text;
  if (!core::read_file(shard_result_path(state_dir, round, shard), &text) ||
      !parse_shard_result(text, out)) {
    return false;
  }
  return out->round == round && out->shard == shard &&
         out->shards == shards && out->config_sig == config_sig;
}

bool merge_shard_outcomes(const std::vector<ShardResult>& results,
                          std::size_t planned_cases,
                          std::vector<CaseOutcome>* out,
                          std::size_t* missing) {
  out->assign(planned_cases, CaseOutcome{});
  for (const auto& result : results) {
    for (const auto& [index, oc] : result.outcomes) {
      if (index >= planned_cases) return false;
      (*out)[index] = oc;
    }
  }
  for (std::size_t i = 0; i < planned_cases; ++i) {
    if (!(*out)[i].executed) {
      if (missing != nullptr) *missing = i;
      return false;
    }
  }
  return true;
}

}  // namespace hdiff::campaign

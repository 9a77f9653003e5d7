#include "campaign/minimize.h"

#include <algorithm>
#include <utility>

#include "campaign/store.h"

namespace hdiff::campaign {
namespace {

std::size_t non_canonical_count(const http::RequestSpec& s) {
  std::size_t n = 0;
  if (s.sep1 != " ") ++n;
  if (s.sep2 != " ") ++n;
  if (s.line_terminator != "\r\n") ++n;
  if (s.headers_terminator != "\r\n") ++n;
  for (const auto& h : s.headers) {
    if (h.separator != ": ") ++n;
    if (h.terminator != "\r\n") ++n;
  }
  return n;
}

}  // namespace

std::pair<std::size_t, std::size_t> spec_measure(const http::RequestSpec& s) {
  return {non_canonical_count(s), serialize_spec(s).size()};
}

MinimizeOutcome minimize_spec(
    const http::RequestSpec& start,
    const std::function<bool(const http::RequestSpec&)>& still_interesting,
    const MinimizeOptions& options) {
  MinimizeOutcome out;
  out.spec = start;
  auto best_measure = spec_measure(out.spec);

  // Try one candidate: accept iff the oracle holds and the measure strictly
  // decreases.  Returns false (and leaves `out.spec` alone) otherwise.
  auto attempt = [&](http::RequestSpec candidate) {
    if (options.max_steps > 0 && out.steps >= options.max_steps) return false;
    const auto measure = spec_measure(candidate);
    if (measure >= best_measure) return false;  // no progress: skip oracle
    ++out.steps;
    if (!still_interesting(candidate)) return false;
    out.spec = std::move(candidate);
    best_measure = measure;
    ++out.accepted;
    return true;
  };
  auto exhausted = [&] {
    return options.max_steps > 0 && out.steps >= options.max_steps;
  };

  bool progressed = true;
  while (progressed && !exhausted()) {
    progressed = false;

    // ---- pass 1: ddmin over the header list ------------------------------
    // Remove chunks of headers, starting with half the list and halving the
    // chunk size down to single headers.
    for (std::size_t chunk = std::max<std::size_t>(out.spec.headers.size() / 2,
                                                   1);
         chunk >= 1 && !out.spec.headers.empty() && !exhausted();
         chunk /= 2) {
      bool removed_any = true;
      while (removed_any && !exhausted()) {
        removed_any = false;
        for (std::size_t at = 0;
             at + chunk <= out.spec.headers.size() && !exhausted();) {
          http::RequestSpec candidate = out.spec;
          candidate.headers.erase(
              candidate.headers.begin() + static_cast<std::ptrdiff_t>(at),
              candidate.headers.begin() + static_cast<std::ptrdiff_t>(at) +
                  static_cast<std::ptrdiff_t>(chunk));
          if (attempt(std::move(candidate))) {
            removed_any = true;
            progressed = true;
            // retry the same position: the next chunk shifted into it
          } else {
            ++at;
          }
        }
      }
      if (chunk == 1) break;
    }

    // ---- pass 2: body ----------------------------------------------------
    if (!out.spec.body.empty() && !exhausted()) {
      http::RequestSpec candidate = out.spec;
      candidate.body.clear();
      if (attempt(std::move(candidate))) {
        progressed = true;
      } else {
        candidate = out.spec;
        candidate.body.resize(candidate.body.size() / 2);
        if (attempt(std::move(candidate))) progressed = true;
      }
    }

    // ---- pass 3: canonicalize syntax elements ----------------------------
    auto canonicalize = [&](auto&& mutate_spec) {
      http::RequestSpec candidate = out.spec;
      mutate_spec(candidate);
      if (attempt(std::move(candidate))) progressed = true;
    };
    if (!exhausted())
      canonicalize([](http::RequestSpec& s) { s.sep1 = ' '; });
    if (!exhausted())
      canonicalize([](http::RequestSpec& s) { s.sep2 = ' '; });
    if (!exhausted())
      canonicalize([](http::RequestSpec& s) { s.line_terminator = "\r\n"; });
    if (!exhausted())
      canonicalize([](http::RequestSpec& s) { s.headers_terminator = "\r\n"; });
    for (std::size_t i = 0; i < out.spec.headers.size() && !exhausted(); ++i) {
      canonicalize([i](http::RequestSpec& s) { s.headers[i].separator = ": "; });
      canonicalize(
          [i](http::RequestSpec& s) { s.headers[i].terminator = "\r\n"; });
    }

    // ---- pass 4: shrink header values ------------------------------------
    for (std::size_t i = 0; i < out.spec.headers.size() && !exhausted(); ++i) {
      const std::string& value = out.spec.headers[i].value;
      if (value.size() < 2) continue;
      http::RequestSpec candidate = out.spec;
      candidate.headers[i].value = value.substr(0, value.size() / 2);
      if (attempt(std::move(candidate))) {
        progressed = true;
        --i;  // keep shrinking the same value
        continue;
      }
      candidate = out.spec;
      candidate.headers[i].value = value.substr(value.size() / 2);
      if (attempt(std::move(candidate))) {
        progressed = true;
        --i;
      }
    }
  }
  return out;
}

}  // namespace hdiff::campaign

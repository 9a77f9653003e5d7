#include "core/stream_detect.h"

#include <algorithm>

#include "http/serialize.h"
#include "net/poison.h"

namespace hdiff::core {
namespace {

void sort_unique(std::vector<std::string>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

/// First request index at which two boundary vectors disagree (or the
/// length of the shorter one when it is a strict prefix of the longer).
std::size_t first_divergent_request(const std::vector<std::size_t>& a,
                                    const std::vector<std::size_t>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return i;
  }
  return n;
}

/// The probe request a poisoned connection would answer wrongly — a
/// deliberately boring GET so any displacement is attributable to the
/// stranded bytes, never to the victim's own framing.
const std::string& victim_wire() {
  static const std::string wire =
      http::make_get("victim.example", "/victim").to_wire();
  return wire;
}

std::string preview(std::string_view bytes, std::size_t limit = 24) {
  std::string out;
  for (char c : bytes.substr(0, limit)) {
    if (c == '\r') {
      out += "\\r";
    } else if (c == '\n') {
      out += "\\n";
    } else if (c < 0x20 || c >= 0x7f) {
      out += '.';
    } else {
      out += c;
    }
  }
  if (bytes.size() > limit) out += "...";
  return out;
}

}  // namespace

const impls::HttpImplementation* StreamDetector::backend_named(
    std::string_view name) const {
  for (const impls::HttpImplementation* b : chain_->backends()) {
    if (b->name() == name) return b;
  }
  return nullptr;
}

StreamDetectionResult StreamDetector::evaluate(
    const net::StreamObservation& obs, const obs::StreamObs* track) const {
  StreamDetectionResult result;
  if (obs.faulted()) return result;

  // --- stream-boundary-desync + stream-leftover-divergence ------------------
  // Pairwise over direct connections that both survived the whole stream.
  // std::map iteration gives lexicographic impl order, so pair components
  // come out canonical without extra sorting work.
  StreamFinding desync;
  desync.detector = std::string(kBoundaryDesync);
  StreamFinding residue;
  residue.detector = std::string(kLeftoverDivergence);
  for (auto a = obs.direct.begin(); a != obs.direct.end(); ++a) {
    if (a->second.early_close) continue;
    for (auto b = std::next(a); b != obs.direct.end(); ++b) {
      if (b->second.early_close) continue;
      const net::ConnectionTrace& ta = a->second;
      const net::ConnectionTrace& tb = b->second;
      if (ta.boundaries != tb.boundaries) {
        const std::size_t k =
            first_divergent_request(ta.boundaries, tb.boundaries);
        desync.components.push_back(a->first + "|" + b->first + "@req" +
                                    std::to_string(k));
        if (!desync.detail.empty()) desync.detail += "; ";
        desync.detail += a->first + " answers " +
                         std::to_string(ta.responses()) + ", " + b->first +
                         " answers " + std::to_string(tb.responses()) +
                         " requests from the same bytes";
      }
      if (ta.leftover != tb.leftover) {
        residue.components.push_back(a->first + "|" + b->first);
        if (!residue.detail.empty()) residue.detail += "; ";
        residue.detail += a->first + " buffers '" + preview(ta.leftover) +
                          "' vs " + b->first + " '" + preview(tb.leftover) +
                          "'";
      }
    }
  }

  // --- stream-queue-poison --------------------------------------------------
  // A proxy expects exactly one response per forwarded request.  On each
  // relayed connection, compare that expectation against what the back-end
  // automaton actually produced, and classify any stranded bytes with the
  // shared queue-shift oracle.
  StreamFinding poison;
  poison.detector = std::string(kQueuePoison);
  for (const auto& [key, trace] : obs.relayed) {
    const std::size_t arrow = key.find("->");
    if (arrow == std::string::npos) continue;
    const std::string proxy = key.substr(0, arrow);
    const std::string backend = key.substr(arrow + 2);
    auto pt = obs.proxies.find(proxy);
    if (pt == obs.proxies.end()) continue;
    const std::size_t forwarded = pt->second.forwarded.size();

    if (!trace.leftover.empty()) {
      const impls::HttpImplementation* back = backend_named(backend);
      if (!back) continue;
      const net::QueueShift shift =
          net::classify_queue_shift(*back, trace.leftover, victim_wire());
      if (shift.displaced) {
        poison.components.push_back(key + "@hijack");
        if (!poison.detail.empty()) poison.detail += "; ";
        poison.detail += key + ": stranded bytes answer the victim with '" +
                         shift.answered_for + "'";
      } else if (shift.desync) {
        poison.components.push_back(key + "@desync");
        if (!poison.detail.empty()) poison.detail += "; ";
        poison.detail += key + ": stranded bytes poison the next response (" +
                         std::to_string(shift.next_status) + ")";
      }
    } else if (!trace.early_close && trace.responses() != forwarded) {
      // More responses than forwarded requests: the remainder of one
      // forwarded message already parsed as an extra request, so every
      // later response answers the wrong client.  (Fewer responses without
      // an early close cannot happen with an empty leftover.)
      poison.components.push_back(key + "@queue-skew");
      if (!poison.detail.empty()) poison.detail += "; ";
      poison.detail += key + ": " + std::to_string(forwarded) +
                       " forwarded but " + std::to_string(trace.responses()) +
                       " answered";
    }
  }

  for (StreamFinding* f : {&desync, &poison, &residue}) {
    if (f->components.empty()) continue;
    sort_unique(f->components);
    result.findings.push_back(std::move(*f));
  }

  count(result, track);
  return result;
}

void StreamDetector::count(const StreamDetectionResult& result,
                           const obs::StreamObs* track) {
  if (!track) return;
  for (const StreamFinding& f : result.findings) {
    if (f.detector == kBoundaryDesync && track->boundary_desync) {
      track->boundary_desync->add();
    } else if (f.detector == kQueuePoison && track->queue_poison) {
      track->queue_poison->add();
    } else if (f.detector == kLeftoverDivergence &&
               track->leftover_divergence) {
      track->leftover_divergence->add();
    }
  }
}

}  // namespace hdiff::core

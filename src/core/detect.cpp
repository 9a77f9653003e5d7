#include "core/detect.h"

#include <algorithm>
#include <memory>

#include "http/header_util.h"
#include "impls/products.h"

namespace hdiff::core {

namespace {

/// Strict RFC reference parser, used to attribute HRS pairs: if the
/// forwarded bytes are unambiguous to a conformant recipient, the back-end
/// misread them (back at fault); if the reference itself rejects or leaves a
/// remainder, the front-end emitted ambiguous bytes (front at fault).
const impls::HttpImplementation& reference_impl() {
  static const impls::ModelImplementation kRef = [] {
    impls::ParsePolicy p;  // defaults are the strict RFC readings
    p.name = "rfc-reference";
    p.server_mode = true;
    p.cl_te_conflict = impls::ClTeConflict::kReject400;
    return impls::ModelImplementation(p);
  }();
  return kRef;
}

std::pair<std::string, std::string> split_pair_key(const std::string& key) {
  std::size_t arrow = key.find("->");
  if (arrow == std::string::npos) return {key, ""};
  return {key.substr(0, arrow), key.substr(arrow + 2)};
}

bool hosts_differ(const std::string& a, const std::string& b) {
  if (a.empty() && b.empty()) return false;
  return !http::iequals(a, b);
}

}  // namespace

DetectionResult DetectionEngine::evaluate(
    const TestCase& tc, const net::ChainObservation& obs) const {
  DetectionResult result;
  // A faulted observation carries no genuine verdicts: evaluating it would
  // manufacture differentials out of harness failures.  The executor
  // quarantines such cases; this guard keeps the invariant even for direct
  // callers.
  if (obs.faulted()) return result;
  auto record_vector = [&](AttackClass attack) {
    if (!tc.vector_label.empty()) {
      result.vector_hits[tc.vector_label].insert(
          std::string(to_string(attack)));
    }
  };

  // ---- SR assertion checks (single-implementation testing) ----------------
  if (tc.assertion) {
    const Assertion& a = *tc.assertion;
    const bool constrains_servers =
        text::role_covers(a.role, text::Role::kServer) ||
        a.role == text::Role::kServer;
    const bool constrains_proxies =
        text::role_covers(a.role, text::Role::kProxy) ||
        a.role == text::Role::kProxy || a.expect_not_forward;

    if (constrains_servers && (a.expect_reject || a.expect_status)) {
      for (const auto& [name, verdict] : obs.direct) {
        if (verdict.accepted() || verdict.incomplete) {
          SrViolation v;
          v.impl = name;
          v.sr_id = a.sr_id;
          v.uuid = tc.uuid;
          v.category = tc.category;
          v.detail = "accepted (" + std::to_string(verdict.status) +
                     ") a request the specification requires rejecting: " +
                     tc.description;
          record_vector(tc.category);
          result.violations.push_back(std::move(v));
        }
      }
    }
    if (constrains_proxies) {
      for (const auto& [name, verdict] : obs.proxies) {
        if (verdict.forwarded()) {
          SrViolation v;
          v.impl = name;
          v.sr_id = a.sr_id;
          v.uuid = tc.uuid;
          v.category = tc.category;
          v.detail =
              "forwarded a request the specification requires handling as "
              "an error: " +
              tc.description;
          record_vector(tc.category);
          result.violations.push_back(std::move(v));
        }
      }
    }
  }

  // ---- pair-level detection models ----------------------------------------
  // Precompute the CPDoS gate: does *some* back-end serve some forward of
  // this test case successfully?  (Without that, an error everywhere is not
  // a semantic gap, just a bad request.)
  bool some_backend_accepts = false;
  for (const auto& [key, verdict] : obs.replays) {
    if (verdict.accepted()) some_backend_accepts = true;
  }
  for (const auto& [name, verdict] : obs.direct) {
    if (verdict.accepted()) some_backend_accepts = true;
  }

  for (const auto& [key, verdict] : obs.replays) {
    auto [front, back] = split_pair_key(key);
    auto proxy_it = obs.proxies.find(front);
    if (proxy_it == obs.proxies.end() || !proxy_it->second.forwarded()) {
      continue;
    }
    const impls::ProxyVerdict& proxy = proxy_it->second;

    // HRS: back-end derives a different message boundary from the bytes the
    // front-end framed as exactly one request.
    if (verdict.accepted() && !verdict.leftover.empty()) {
      PairFinding f;
      f.front = front;
      f.back = back;
      f.attack = AttackClass::kHrs;
      f.uuid = tc.uuid;
      f.detail = "back-end leaves " + std::to_string(verdict.leftover.size()) +
                 " smuggled byte(s) after the forwarded request (" +
                 tc.description + ")";
      record_vector(AttackClass::kHrs);
      result.pairs.push_back(std::move(f));
    } else if (verdict.incomplete) {
      PairFinding f;
      f.front = front;
      f.back = back;
      f.attack = AttackClass::kHrs;
      f.uuid = tc.uuid;
      f.detail = "back-end blocks awaiting more bytes than the front-end "
                 "sent — request desynchronization (" +
                 tc.description + ")";
      record_vector(AttackClass::kHrs);
      result.pairs.push_back(std::move(f));
    }

    // HoT: routing host disagreement between front and back.  Both sides
    // must actually derive a host — a request that merely *loses* its Host
    // on the way (hop-by-hop stripping) is a CPDoS/routing-loss vector, not
    // an ambiguous-interpretation one.
    if (verdict.accepted() && !proxy.host.empty() && !verdict.host.empty() &&
        hosts_differ(proxy.host, verdict.host)) {
      PairFinding f;
      f.front = front;
      f.back = back;
      f.attack = AttackClass::kHot;
      f.uuid = tc.uuid;
      f.detail = "front routed on '" + proxy.host + "' but back-end derives '" +
                 verdict.host + "' (" + tc.description + ")";
      record_vector(AttackClass::kHot);
      result.pairs.push_back(std::move(f));
    }

    // HRS (response path): the proxy mistakes the back-end's interim
    // response for the final one and strands the real response on the
    // back-end connection — the next client on this reused connection is
    // answered with the stranded bytes.
    if (auto relay_it = obs.relays.find(key); relay_it != obs.relays.end()) {
      const impls::RelayOutcome& relay = relay_it->second;
      if (relay.desync) {
        PairFinding f;
        f.front = front;
        f.back = back;
        f.attack = AttackClass::kHrs;
        f.uuid = tc.uuid;
        f.detail = "proxy relays the interim response as final; " +
                   std::to_string(relay.stale_backend_bytes.size()) +
                   " response byte(s) stranded on the back-end connection (" +
                   tc.description + ")";
        f.blame = Blame::kFront;  // mishandling interims is the proxy's bug
        record_vector(AttackClass::kHrs);
        result.pairs.push_back(std::move(f));
      }
    }

    // CPDoS: the cached entry for this key becomes an error page while some
    // other back-end serves the request fine.
    if (proxy.would_cache && verdict.status >= 400 && some_backend_accepts) {
      PairFinding f;
      f.front = front;
      f.back = back;
      f.attack = AttackClass::kCpdos;
      f.uuid = tc.uuid;
      f.detail = "error " + std::to_string(verdict.status) +
                 " cached under key '" + proxy.cache_key + "' (" +
                 tc.description + ")";
      record_vector(AttackClass::kCpdos);
      result.pairs.push_back(std::move(f));
    }
  }

  // ---- plain discrepancy counting over direct verdicts --------------------
  {
    bool status_diff = false, host_diff = false, body_diff = false;
    const impls::ServerVerdict* first = nullptr;
    for (const auto& [name, verdict] : obs.direct) {
      if (!first) {
        first = &verdict;
        continue;
      }
      if (verdict.status / 100 != first->status / 100) status_diff = true;
      if (verdict.accepted() && first->accepted() &&
          hosts_differ(verdict.host, first->host)) {
        host_diff = true;
      }
      if (verdict.accepted() && first->accepted() &&
          verdict.body != first->body) {
        body_diff = true;
      }
    }
    if (status_diff) ++result.discrepancies.status_disagreements;
    if (host_diff) ++result.discrepancies.host_disagreements;
    if (body_diff) ++result.discrepancies.body_disagreements;
    if (status_diff || host_diff || body_diff) {
      ++result.discrepancies.inputs_with_discrepancy;
    }
  }
  return result;
}

void DetectionEngine::accumulate(DetectionResult& total,
                                 const DetectionResult& delta) {
  auto has_violation = [&](const SrViolation& v) {
    for (const auto& existing : total.violations) {
      if (existing.impl == v.impl && existing.sr_id == v.sr_id &&
          existing.detail == v.detail) {
        return true;
      }
    }
    return false;
  };
  for (const auto& v : delta.violations) {
    if (!has_violation(v)) total.violations.push_back(v);
  }
  auto has_pair = [&](const PairFinding& p) {
    for (const auto& existing : total.pairs) {
      if (existing.front == p.front && existing.back == p.back &&
          existing.attack == p.attack) {
        return true;
      }
    }
    return false;
  };
  for (const auto& p : delta.pairs) {
    if (!has_pair(p)) total.pairs.push_back(p);
  }
  total.discrepancies.status_disagreements +=
      delta.discrepancies.status_disagreements;
  total.discrepancies.host_disagreements +=
      delta.discrepancies.host_disagreements;
  total.discrepancies.body_disagreements +=
      delta.discrepancies.body_disagreements;
  total.discrepancies.inputs_with_discrepancy +=
      delta.discrepancies.inputs_with_discrepancy;
  for (const auto& [label, attacks] : delta.vector_hits) {
    total.vector_hits[label].insert(attacks.begin(), attacks.end());
  }
  for (const auto& f : delta.streams) {
    const bool known =
        std::any_of(total.streams.begin(), total.streams.end(),
                    [&](const StreamFinding& e) {
                      return e.detector == f.detector &&
                             e.components == f.components;
                    });
    if (!known) total.streams.push_back(f);
  }
}

VulnMatrix build_matrix(const DetectionResult& total,
                        const std::vector<TestCase>& cases) {
  VulnMatrix matrix;
  for (auto name : impls::product_names()) {
    matrix.by_impl.emplace(std::string(name), VulnMatrix::Row{});
  }

  // Index test cases for pair attribution.
  std::map<std::string, const TestCase*> by_uuid;
  for (const auto& tc : cases) by_uuid.emplace(tc.uuid, &tc);

  // HRS from specification violations in framing categories.
  for (const auto& v : total.violations) {
    auto it = matrix.by_impl.find(v.impl);
    if (it == matrix.by_impl.end()) continue;
    if (v.category == AttackClass::kHrs) it->second.hrs = true;
  }

  for (const auto& p : total.pairs) {
    const std::string key = p.front + "->" + p.back;
    switch (p.attack) {
      case AttackClass::kHrs: {
        matrix.hrs_pairs.insert(key);
        if (p.blame == Blame::kFront || p.blame == Blame::kBack) {
          auto it = matrix.by_impl.find(p.blame == Blame::kFront ? p.front
                                                                 : p.back);
          if (it != matrix.by_impl.end()) it->second.hrs = true;
          break;
        }
        // Attribute fault via the strict reference parser over the actual
        // forwarded bytes for this finding's test case.
        auto tc_it = by_uuid.find(p.uuid);
        bool front_at_fault = true;
        if (tc_it != by_uuid.end()) {
          auto front_impl = impls::make_implementation(p.front);
          if (front_impl) {
            impls::ProxyVerdict pv =
                front_impl->forward_request(tc_it->second->raw);
            if (pv.forwarded()) {
              impls::ServerVerdict ref =
                  reference_impl().parse_request(pv.forwarded_bytes);
              front_at_fault =
                  !ref.accepted() || !ref.leftover.empty() || ref.incomplete;
            }
          }
        }
        auto it = matrix.by_impl.find(front_at_fault ? p.front : p.back);
        if (it != matrix.by_impl.end()) it->second.hrs = true;
        break;
      }
      case AttackClass::kHot:
        matrix.hot_pairs.insert(key);
        if (auto it = matrix.by_impl.find(p.front); it != matrix.by_impl.end()) {
          it->second.hot = true;
        }
        if (auto it = matrix.by_impl.find(p.back); it != matrix.by_impl.end()) {
          it->second.hot = true;
        }
        break;
      case AttackClass::kCpdos:
        matrix.cpdos_pairs.insert(key);
        if (auto it = matrix.by_impl.find(p.front); it != matrix.by_impl.end()) {
          it->second.cpdos = true;
        }
        break;
      case AttackClass::kGeneric:
        break;
    }
  }

  // Table II catalogue, accumulated at evaluation time.
  matrix.vector_catalogue = total.vector_hits;
  return matrix;
}

}  // namespace hdiff::core

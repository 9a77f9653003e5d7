#include "analysis/coverage.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>

#include "core/record.h"

namespace hdiff::analysis {
namespace {

/// Root proximity weight: depth 0 (the request line itself) scores
/// kDepthCap, anything at or beyond kDepthCap - 1 scores 1.  Semantic-gap
/// attacks concentrate near the message root, where every implementation
/// must commit to an interpretation early.
constexpr std::size_t kDepthCap = 16;

/// The hash state coverage_plan_sig starts from.  It is the FNV offset basis
/// with its last digit missing, kept because checkpoints record the sig.
constexpr std::uint64_t kPlanSigBasis = 1469598103934665603ULL;

std::size_t site_rank(const std::bitset<256>& overlap, std::size_t depth,
                      bool leftmost) {
  const std::size_t proximity =
      kDepthCap - std::min(depth, kDepthCap - 1);
  return overlap.count() * proximity * (leftmost ? 2 : 1);
}

}  // namespace

std::size_t CoveragePlan::id_of(std::string_view name) const {
  const auto it = std::lower_bound(
      productions.begin(), productions.end(), name,
      [](const CoverageProduction& p, std::string_view n) {
        return p.name < n;
      });
  if (it == productions.end() || it->name != name) return npos;
  return static_cast<std::size_t>(it - productions.begin());
}

std::string byte_class_hex(const std::bitset<256>& bits) {
  std::string bytes(32, '\0');
  for (std::size_t b = 0; b < 256; ++b) {
    if (bits.test(b)) bytes[b / 8] = static_cast<char>(bytes[b / 8] | (1 << b % 8));
  }
  return core::hex_encode(bytes);
}

bool parse_byte_class_hex(std::string_view hex, std::bitset<256>* out) {
  std::string bytes;
  if (!core::hex_decode(hex, &bytes) || bytes.size() != 32) return false;
  out->reset();
  for (std::size_t b = 0; b < 256; ++b) {
    if ((static_cast<unsigned char>(bytes[b / 8]) >> b % 8) & 1) out->set(b);
  }
  return true;
}

std::string witness_bytes(const std::bitset<256>& bits,
                          std::size_t max_bytes) {
  std::string out;
  for (std::size_t b = 0; b < 256 && out.size() < max_bytes; ++b) {
    if (bits.test(b)) out.push_back(static_cast<char>(b));
  }
  return out;
}

std::string coverage_plan_sig(const CoveragePlan& plan) {
  std::string acc = "cov-plan-v1";
  for (const auto& p : plan.productions) {
    acc += "|p:" + p.name + ":" + std::to_string(p.depth) +
           (p.leftmost ? ":l" : ":r");
  }
  for (const auto& s : plan.sites) {
    acc += "|s:" + std::to_string(s.production) + ":" +
           std::to_string(s.alt_a) + ":" + std::to_string(s.alt_b) + ":" +
           s.kind + ":" + byte_class_hex(s.overlap);
    for (std::size_t a : s.related) {
      acc += ',';
      acc += std::to_string(a);
    }
  }
  return core::hex16(core::fnv1a64(acc, kPlanSigBasis));
}

CoveragePlan build_coverage_plan(const abnf::Grammar& grammar,
                                 const std::vector<std::string>& roots_in) {
  CoveragePlan plan;
  const GrammarFacts facts = compute_grammar_facts(grammar);

  std::set<std::string> roots;
  for (const auto& r : roots_in) {
    std::string n = abnf::normalize_rule_name(r);
    if (grammar.contains(n)) roots.insert(std::move(n));
  }
  if (roots.empty()) {
    for (const auto& [name, rule] : grammar.rules()) roots.insert(name);
  }

  // BFS depth over general rule references: the reachable cone IS the
  // production set (rules outside it are GL007 territory, not coverage).
  // Both edge directions are recorded for the per-site attribution cones.
  std::map<std::string, std::size_t> depth;
  std::map<std::string, std::set<std::string>> parents;
  std::map<std::string, std::set<std::string>> children;
  std::deque<std::string> queue;
  for (const auto& r : roots) {
    depth.emplace(r, 0);
    queue.push_back(r);
  }
  while (!queue.empty()) {
    const std::string cur = std::move(queue.front());
    queue.pop_front();
    const abnf::Rule* rule = grammar.find(cur);
    if (rule == nullptr) continue;
    std::vector<std::string> refs;
    abnf::Grammar::collect_refs(rule->definition, refs);
    const std::size_t next_depth = depth.at(cur) + 1;
    for (auto& ref : refs) {
      if (!grammar.contains(ref)) continue;
      parents[ref].insert(cur);
      children[cur].insert(ref);
      if (depth.emplace(ref, next_depth).second) queue.push_back(ref);
    }
  }

  // Leftmost closure: rules a parser can be deciding while still at the
  // first byte of a root (through nullable prefixes — facts.left_calls).
  std::set<std::string> leftmost(roots.begin(), roots.end());
  std::deque<std::string> lqueue(roots.begin(), roots.end());
  while (!lqueue.empty()) {
    const std::string cur = std::move(lqueue.front());
    lqueue.pop_front();
    const auto it = facts.left_calls.find(cur);
    if (it == facts.left_calls.end()) continue;
    for (const auto& next : it->second) {
      if (leftmost.insert(next).second) lqueue.push_back(next);
    }
  }

  // Productions: the reachable cone, name-sorted (std::map order), so ids
  // are stable for any root order.
  plan.productions.reserve(depth.size());
  for (const auto& [name, d] : depth) {
    plan.productions.push_back({name, d, leftmost.count(name) > 0});
  }

  // Attribution cone of a rule: every cone production whose text flows
  // through it — its ancestors plus its own subtree (itself included).
  auto related_of = [&](const std::string& rule) {
    std::set<std::string> seen{rule};
    auto closure = [&](const std::map<std::string, std::set<std::string>>&
                           edges) {
      std::deque<std::string> work{rule};
      while (!work.empty()) {
        const std::string cur = std::move(work.front());
        work.pop_front();
        const auto it = edges.find(cur);
        if (it == edges.end()) continue;
        for (const auto& next : it->second) {
          if (seen.insert(next).second) work.push_back(next);
        }
      }
    };
    closure(parents);
    closure(children);
    std::vector<std::size_t> ids;
    for (const auto& name : seen) {
      const std::size_t id = plan.id_of(name);
      if (id != CoveragePlan::npos) ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  };

  // Gap sites: the exact GL005/GL006 pair logic (single source of truth in
  // grammar_lint), restricted to the cone, then ranked.
  for (RawGapSite& raw : collect_gap_sites(grammar, facts)) {
    const std::size_t prod = plan.id_of(raw.rule);
    if (prod == CoveragePlan::npos) continue;
    const CoverageProduction& owner = plan.productions[prod];
    GapSite site;
    site.production = prod;
    site.rule = raw.rule;
    site.alt_a = raw.alt_a;
    site.alt_b = raw.alt_b;
    site.kind = raw.terminal ? 'b' : 'f';
    site.overlap = raw.overlap;
    site.width = raw.overlap.count();
    site.rank = site_rank(raw.overlap, owner.depth, owner.leftmost);
    site.witness = witness_bytes(raw.overlap);
    site.related = related_of(raw.rule);
    plan.sites.push_back(std::move(site));
  }
  std::stable_sort(plan.sites.begin(), plan.sites.end(),
                   [](const GapSite& a, const GapSite& b) {
                     if (a.rank != b.rank) return a.rank > b.rank;
                     if (a.rule != b.rule) return a.rule < b.rule;
                     if (a.alt_a != b.alt_a) return a.alt_a < b.alt_a;
                     return a.alt_b < b.alt_b;
                   });
  for (std::size_t i = 0; i < plan.sites.size(); ++i) plan.sites[i].id = i;

  plan.sig = coverage_plan_sig(plan);
  return plan;
}

}  // namespace hdiff::analysis

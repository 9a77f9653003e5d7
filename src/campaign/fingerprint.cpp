#include "campaign/fingerprint.h"

#include <algorithm>

#include "core/record.h"

namespace hdiff::campaign {
namespace {

void sort_unique(std::vector<std::string>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

std::string Signature::canonical() const {
  std::string out = detector;
  out += ':';
  for (std::size_t i = 0; i < vector.size(); ++i) {
    if (i) out += ',';
    out += vector[i];
  }
  return out;
}

std::vector<Signature> signatures_of(const core::DetectionResult& delta) {
  std::vector<Signature> out;

  Signature sr;
  sr.detector = "sr-violation";
  for (const auto& v : delta.violations) {
    sr.vector.push_back(v.impl + "|" + v.sr_id);
  }
  if (!sr.vector.empty()) {
    sort_unique(sr.vector);
    out.push_back(std::move(sr));
  }

  // One signature per attack class present among the pair findings, so a
  // case that trips both HRS and CPDoS files two findings (they are
  // different detectors and, operationally, different bugs to chase).
  for (core::AttackClass attack :
       {core::AttackClass::kHrs, core::AttackClass::kHot,
        core::AttackClass::kCpdos, core::AttackClass::kGeneric}) {
    Signature sig;
    sig.detector = std::string(to_string(attack));
    for (const auto& p : delta.pairs) {
      if (p.attack != attack) continue;
      sig.vector.push_back(p.front + "->" + p.back);
    }
    if (!sig.vector.empty()) {
      sort_unique(sig.vector);
      out.push_back(std::move(sig));
    }
  }

  if (delta.discrepancies.inputs_with_discrepancy > 0) {
    Signature d;
    d.detector = "discrepancy";
    if (delta.discrepancies.status_disagreements > 0)
      d.vector.push_back("status");
    if (delta.discrepancies.host_disagreements > 0) d.vector.push_back("host");
    if (delta.discrepancies.body_disagreements > 0) d.vector.push_back("body");
    sort_unique(d.vector);
    out.push_back(std::move(d));
  }

  for (const auto& f : delta.streams) out.push_back({f.detector, f.components});
  return out;
}

std::string hex64(std::string_view bytes) {
  return core::hex16(core::fnv1a64(bytes));
}

std::string fingerprint(const Signature& sig, const std::string& provenance) {
  return hex64(sig.canonical() + "#" + provenance);
}

}  // namespace hdiff::campaign

#include "core/export.h"

#include <cctype>

#include "report/json.h"

namespace hdiff::core {

using report::JsonWriter;

namespace {

void write_test_case(JsonWriter& w, const TestCase& tc) {
  w.begin_object();
  w.key("uuid").value(tc.uuid);
  w.key("raw_hex").value(hex_encode(tc.raw));
  w.key("description").value(tc.description);
  w.key("vector_label").value(tc.vector_label);
  w.key("origin").value(to_string(tc.origin));
  w.key("category").value(to_string(tc.category));
  if (tc.assertion) {
    const Assertion& a = *tc.assertion;
    w.key("assert_role").value(text::to_string(a.role));
    w.key("assert_status")
        .value(a.expect_status ? std::to_string(*a.expect_status) : "");
    w.key("assert_reject").value(a.expect_reject ? "1" : "0");
    w.key("assert_not_forward").value(a.expect_not_forward ? "1" : "0");
    w.key("assert_sr").value(a.sr_id);
  }
  w.end_object();
}

std::optional<TestOrigin> origin_from_string(std::string_view s) {
  if (s == "sr-translator") return TestOrigin::kSrTranslator;
  if (s == "abnf-generator") return TestOrigin::kAbnfGenerator;
  if (s == "mutation") return TestOrigin::kMutation;
  if (s == "manual") return TestOrigin::kManual;
  return std::nullopt;
}

std::optional<AttackClass> category_from_string(std::string_view s) {
  if (s == "HRS") return AttackClass::kHrs;
  if (s == "HoT") return AttackClass::kHot;
  if (s == "CPDoS") return AttackClass::kCpdos;
  if (s == "generic") return AttackClass::kGeneric;
  return std::nullopt;
}

/// Minimal scanner for the flat JSON this module emits: an object with a
/// "cases" array of objects whose values are strings.  Tolerates arbitrary
/// whitespace; rejects anything structurally unexpected.
class FlatScanner {
 public:
  explicit FlatScanner(std::string_view text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool peek_is(char c) {
    skip_ws();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  /// Skip a scalar value: a string or a bare number/true/false/null.
  bool skip_scalar() {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    if (text_[pos_] == '"') {
      std::string discard;
      return read_string(&discard);
    }
    std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != ',' && text_[pos_] != '}' &&
           text_[pos_] != ']' &&
           !std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool read_string(std::string* out) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        char esc = text_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            // This exporter only emits \u00XX for control bytes.
            std::string code;
            if (!hex_decode(text_.substr(pos_, 4), &code) ||
                code.size() != 2 || code[0] != '\0') {
              return false;
            }
            out->push_back(code[1]);
            pos_ += 4;
            break;
          }
          default:
            return false;
        }
      } else {
        out->push_back(c);
      }
    }
    return false;  // unterminated
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string export_test_cases_json(const std::vector<TestCase>& cases) {
  JsonWriter w;
  w.begin_object();
  w.key("format").value("hdiff-test-corpus-v1");
  w.key("count").value(cases.size());
  w.key("cases").begin_array();
  for (const auto& tc : cases) write_test_case(w, tc);
  w.end_array();
  w.end_object();
  return w.str();
}

bool import_test_cases_json(std::string_view json,
                            std::vector<TestCase>* out) {
  if (!out) return false;
  std::vector<TestCase> cases;
  FlatScanner scan(json);
  if (!scan.consume('{')) return false;

  // Walk the top-level object until the "cases" array.
  bool in_cases = false;
  std::string key;
  while (true) {
    if (!scan.read_string(&key)) return false;
    if (!scan.consume(':')) return false;
    if (key == "cases") {
      in_cases = true;
      break;
    }
    if (!scan.skip_scalar()) return false;
    if (!scan.consume(',')) return false;
  }
  if (!in_cases || !scan.consume('[')) return false;

  if (!scan.peek_is(']')) {
    do {
      if (!scan.consume('{')) return false;
      TestCase tc;
      std::string raw_hex;
      bool has_assertion = false;
      Assertion assertion;
      do {
        std::string field, field_value;
        if (!scan.read_string(&field)) return false;
        if (!scan.consume(':')) return false;
        if (!scan.read_string(&field_value)) return false;
        if (field == "uuid") {
          tc.uuid = field_value;
        } else if (field == "raw_hex") {
          raw_hex = field_value;
        } else if (field == "description") {
          tc.description = field_value;
        } else if (field == "vector_label") {
          tc.vector_label = field_value;
        } else if (field == "origin") {
          auto origin = origin_from_string(field_value);
          if (!origin) return false;
          tc.origin = *origin;
        } else if (field == "category") {
          auto category = category_from_string(field_value);
          if (!category) return false;
          tc.category = *category;
        } else if (field == "assert_role") {
          has_assertion = true;
          assertion.role = text::role_from_word(field_value);
        } else if (field == "assert_status") {
          has_assertion = true;
          if (!field_value.empty()) {
            int status = 0;
            if (!parse_dec(field_value, &status)) return false;
            assertion.expect_status = status;
          }
        } else if (field == "assert_reject") {
          has_assertion = true;
          assertion.expect_reject = field_value == "1";
        } else if (field == "assert_not_forward") {
          has_assertion = true;
          assertion.expect_not_forward = field_value == "1";
        } else if (field == "assert_sr") {
          has_assertion = true;
          assertion.sr_id = field_value;
        }
      } while (scan.consume(','));
      if (!scan.consume('}')) return false;
      if (!hex_decode(raw_hex, &tc.raw)) return false;
      if (has_assertion) tc.assertion = std::move(assertion);
      cases.push_back(std::move(tc));
    } while (scan.consume(','));
  }
  if (!scan.consume(']')) return false;

  *out = std::move(cases);
  return true;
}

std::string export_json(const PipelineResult& result, ExportOptions options) {
  JsonWriter w;
  w.begin_object();
  w.key("format").value("hdiff-findings-v1");

  w.key("analysis").begin_object();
  w.key("corpus_words").value(result.analysis.total_words);
  w.key("corpus_sentences").value(result.analysis.total_sentences);
  w.key("sr_count").value(result.analysis.srs.size());
  w.key("converted_sr_count").value(result.analysis.converted_sr_count);
  w.key("abnf_rule_count").value(result.analysis.grammar.size());
  w.end_object();

  w.key("generation").begin_object();
  w.key("sr_cases").value(result.sr_case_count);
  w.key("abnf_cases").value(result.abnf_case_count);
  w.key("executed_cases").value(result.executed_cases.size());
  w.end_object();

  w.key("matrix").begin_object();
  for (const auto& [impl, row] : result.matrix.by_impl) {
    w.key(impl).begin_object();
    w.key("hrs").value(row.hrs);
    w.key("hot").value(row.hot);
    w.key("cpdos").value(row.cpdos);
    w.end_object();
  }
  w.end_object();

  auto write_pairs = [&](const char* name, const std::set<std::string>& set) {
    w.key(name).begin_array();
    for (const auto& pair : set) w.value(pair);
    w.end_array();
  };
  write_pairs("hrs_pairs", result.matrix.hrs_pairs);
  write_pairs("hot_pairs", result.matrix.hot_pairs);
  write_pairs("cpdos_pairs", result.matrix.cpdos_pairs);

  w.key("violations").begin_array();
  for (const auto& v : result.findings.violations) {
    w.begin_object();
    w.key("impl").value(v.impl);
    w.key("sr_id").value(v.sr_id);
    w.key("uuid").value(v.uuid);
    w.key("category").value(to_string(v.category));
    w.key("detail").value(v.detail);
    w.end_object();
  }
  w.end_array();

  if (options.include_pair_details) {
    w.key("pair_findings").begin_array();
    for (const auto& p : result.findings.pairs) {
      w.begin_object();
      w.key("front").value(p.front);
      w.key("back").value(p.back);
      w.key("attack").value(to_string(p.attack));
      w.key("uuid").value(p.uuid);
      w.key("detail").value(p.detail);
      w.end_object();
    }
    w.end_array();
  }

  w.key("discrepancies").begin_object();
  w.key("status").value(result.findings.discrepancies.status_disagreements);
  w.key("host").value(result.findings.discrepancies.host_disagreements);
  w.key("body").value(result.findings.discrepancies.body_disagreements);
  w.key("inputs").value(
      result.findings.discrepancies.inputs_with_discrepancy);
  w.end_object();

  // Harness-fault degradation accounting: consumers of a findings file must
  // be able to see how much coverage was lost to quarantine (all zero on a
  // healthy run).
  w.key("degradation").begin_object();
  w.key("faulted_attempts").value(result.exec_stats.faulted_attempts);
  w.key("retry_attempts").value(result.exec_stats.retry_attempts);
  w.key("recovered_cases").value(result.exec_stats.recovered_cases);
  w.key("quarantined_cases").value(result.exec_stats.quarantined_cases);
  w.key("quarantined").begin_array();
  for (const auto& q : result.exec_stats.quarantined) {
    w.begin_object();
    w.key("uuid").value(q.uuid);
    w.key("error").value(net::to_string(q.error));
    w.key("attempts").value(q.attempts);
    w.key("detail").value(q.detail);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  // Throughput accounting for the differential stage (mirrors
  // ExecutorStats); cache hit rates and bytes quantify how much work the
  // memo layers absorbed.
  w.key("metrics").begin_object();
  w.key("jobs").value(result.exec_stats.jobs);
  w.key("cases").value(result.exec_stats.cases);
  w.key("memo_hits").value(result.exec_stats.memo_hits);
  w.key("memo_misses").value(result.exec_stats.memo_misses);
  w.key("memo_hit_rate").value(result.exec_stats.memo_hit_rate());
  w.key("memo_bytes").value(result.exec_stats.memo_bytes);
  w.key("verdict_hits").value(result.exec_stats.verdict_hits);
  w.key("verdict_misses").value(result.exec_stats.verdict_misses);
  w.key("verdict_hit_rate").value(result.exec_stats.verdict_hit_rate());
  w.key("verdict_bytes").value(result.exec_stats.verdict_bytes);
  w.key("echo_records").value(result.exec_stats.echo_records);
  w.key("echo_dropped").value(result.exec_stats.echo_dropped);
  w.end_object();

  // Per-stage wall clock in execution order (microseconds).
  w.key("stage_timings").begin_array();
  for (const auto& st : result.stage_timings) {
    w.begin_object();
    w.key("stage").value(st.stage);
    w.key("micros").value(st.micros);
    w.end_object();
  }
  w.end_array();

  // Static-analysis verdicts over the run's grammar and rule base
  // (pre-rendered by the analysis layer; see ExportOptions::lint_json).
  if (!options.lint_json.empty()) {
    w.key("lint").raw(options.lint_json);
  }

  if (options.include_test_cases) {
    w.key("cases").begin_array();
    for (const auto& tc : result.executed_cases) write_test_case(w, tc);
    w.end_array();
  }
  w.end_object();
  return w.str();
}

}  // namespace hdiff::core

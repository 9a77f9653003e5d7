#include "campaign/store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <thread>

#include "campaign/fingerprint.h"
#include "core/executor.h"
#include "core/export.h"
#include "report/json.h"

namespace hdiff::campaign {
namespace {

namespace fs = std::filesystem;

/// write(2) the whole buffer, surviving EINTR and short writes.
bool write_all(int fd, std::string_view content) {
  std::size_t off = 0;
  while (off < content.size()) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// fsync the directory containing `path`, so a just-renamed entry is itself
/// durable (rename updates the directory, not the file).
bool fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

/// Write `content` to `tmp` and fsync it.  The tmp bytes must be on disk
/// *before* a rename publishes them: a rename-without-fsync crash can
/// legally surface a zero-length file.  A failed write leaves no tmp file.
bool write_tmp_durable(const std::string& tmp, std::string_view content) {
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) return false;
  const bool written = write_all(fd, content) && ::fsync(fd) == 0;
  ::close(fd);
  if (!written) ::unlink(tmp.c_str());
  return written;
}

/// One finding's checkpoint line ("finding=...\n").
std::string finding_state_line(const Finding& f) {
  core::RecordWriter w;
  w.line("finding").dec(f.round).token(f.fingerprint).bytes(f.detector)
      .bytes(f.provenance).bytes(f.case_uuid).bytes(f.description);
  for (const auto& v : f.vector) w.bytes(v);
  return w.take();
}

}  // namespace

bool write_file_atomic_durable(const std::string& path,
                               std::string_view content) {
  const std::string tmp = path + ".tmp";
  if (!write_tmp_durable(tmp, content)) return false;
  if (::rename(tmp.c_str(), path.c_str()) != 0) return false;
  return fsync_parent_dir(path);
}

std::string content_address(const http::RequestSpec& spec) {
  return hex64(serialize_spec(spec));
}

std::string stream_content_address(const stream::RequestStream& s) {
  return hex64(stream::serialize_stream(s));
}

std::string finding_jsonl(const Finding& f) {
  report::JsonWriter w;
  w.begin_object();
  w.key("round").value(static_cast<std::uint64_t>(f.round));
  w.key("fingerprint").value(f.fingerprint);
  w.key("detector").value(f.detector);
  w.key("provenance").value(f.provenance);
  w.key("case_uuid").value(f.case_uuid);
  w.key("description").value(f.description);
  w.key("vector").begin_array();
  for (const auto& v : f.vector) w.value(v);
  w.end_array();
  w.end_object();
  return w.str();
}

StateStore::StateStore(std::string state_dir) : dir_(std::move(state_dir)) {}

StateStore::~StateStore() { release_lock(); }

std::string StateStore::state_path() const { return dir_ + "/campaign.state"; }
std::string StateStore::findings_path() const {
  return dir_ + "/findings.jsonl";
}
std::string StateStore::corpus_path(const std::string& hash) const {
  return dir_ + "/corpus/" + hash + ".case";
}
std::string StateStore::stream_corpus_path(const std::string& hash) const {
  return dir_ + "/corpus/" + hash + ".stream";
}
std::string StateStore::lock_path() const { return dir_ + "/lock"; }

bool StateStore::acquire_lock() {
  if (lock_fd_ >= 0) return true;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    error_ = "cannot create " + dir_ + ": " + ec.message();
    return false;
  }
  const int fd =
      ::open(lock_path().c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    error_ = "cannot open " + lock_path();
    return false;
  }
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    ::close(fd);
    error_ = "state dir " + dir_ +
             " is locked by another campaign writer (flock on " + lock_path() +
             "); refusing to run two engines against one state dir";
    return false;
  }
  lock_fd_ = fd;
  return true;
}

void StateStore::release_lock() {
  if (lock_fd_ >= 0) {
    ::flock(lock_fd_, LOCK_UN);
    ::close(lock_fd_);
    lock_fd_ = -1;
  }
}

bool StateStore::exists() const {
  std::error_code ec;
  return fs::exists(state_path(), ec);
}

bool StateStore::init(const std::string& sig) {
  std::error_code ec;
  fs::create_directories(dir_ + "/corpus", ec);
  if (ec) {
    error_ = "cannot create " + dir_ + "/corpus: " + ec.message();
    return false;
  }
  config_sig = sig;
  rounds_completed = 0;
  if (!write_file_atomic_durable(findings_path(), "")) {
    error_ = "cannot create " + findings_path();
    return false;
  }
  if (!write_file_atomic_durable(state_path(), render_state())) {
    error_ = "cannot write " + state_path();
    return false;
  }
  return true;
}

std::size_t StateStore::add_entry(CorpusEntry entry) {
  const auto [it, inserted] = entry_index_.emplace(entry.hash, entries.size());
  if (!inserted) return it->second;
  staged_files_.push_back(
      {corpus_path(entry.hash), serialize_spec(entry.spec)});
  entries.push_back(std::move(entry));
  return entries.size() - 1;
}

bool StateStore::has_entry(const std::string& hash) const {
  return entry_index_.count(hash) > 0;
}

std::size_t StateStore::entry_index(const std::string& hash) const {
  const auto it = entry_index_.find(hash);
  return it == entry_index_.end() ? npos : it->second;
}

std::size_t StateStore::add_stream_entry(StreamEntry entry) {
  const auto [it, inserted] =
      stream_entry_index_.emplace(entry.hash, stream_entries.size());
  if (!inserted) return it->second;
  staged_files_.push_back({stream_corpus_path(entry.hash),
                           stream::serialize_stream(entry.stream)});
  stream_entries.push_back(std::move(entry));
  return stream_entries.size() - 1;
}

bool StateStore::has_stream_entry(const std::string& hash) const {
  return stream_entry_index_.count(hash) > 0;
}

std::size_t StateStore::stream_entry_index(const std::string& hash) const {
  const auto it = stream_entry_index_.find(hash);
  return it == stream_entry_index_.end() ? npos : it->second;
}

void StateStore::add_finding(Finding f) {
  fingerprints_.insert(f.fingerprint);
  staged_findings_ += finding_jsonl(f);
  staged_findings_ += '\n';
  finding_lines_ += finding_state_line(f);
  findings.push_back(std::move(f));
}

std::string StateStore::render_state() const {
  core::RecordWriter w;
  w.header("hdiff-campaign-state-v1");
  w.line("config_sig").token(config_sig);
  w.line("rounds_completed").dec(rounds_completed);
  if (coverage.enabled()) {
    // Coverage block (optional: absent = coverage disabled, which is how
    // checkpoints written before the feature existed keep loading).  The
    // plan itself is serialized — not recomputed on load — so production
    // and site ids are byte-stable even if the corpus on disk changes.
    w.line("covsig").token(coverage.sig);
    w.line("covweight").flag(coverage_weighting);
    for (const auto& p : coverage.productions) {
      w.line("covprod").dec(p.depth).flag(p.leftmost).token(p.name);
    }
    for (const auto& s : coverage.sites) {
      w.line("covsite").dec(s.production).dec(s.alt_a).dec(s.alt_b)
          .token(std::string_view(&s.kind, 1))
          .token(analysis::byte_class_hex(s.overlap)).dec(s.rank);
      for (std::size_t a : s.related) w.dec(a);
    }
    for (const auto& [key, ids] :
         {std::pair{"covboot", &coverage.bootstrap_covered},
          std::pair{"covered", &covered}}) {
      if (ids->empty()) continue;
      w.line(key);
      for (std::size_t id : *ids) w.dec(id);
    }
    for (const auto& [id, count] : gap_hits) {
      w.line("gaphit").dec(id).dec(count);
    }
  }
  for (const auto& e : entries) {
    w.line("entry").token(e.hash).bytes(e.provenance);
  }
  for (const auto& e : stream_entries) {
    w.line("sentry").token(e.hash).bytes(e.provenance);
  }
  for (const auto& [key, table] :
       {std::pair{"arm", &arms}, std::pair{"sarm", &stream_arms}}) {
    for (const auto& [arm, stats] : *table) {
      w.line(key).dec(arm.first).token(arm.second).dec(stats.attempts)
          .dec(stats.novel).dec(stats.cursor);
    }
  }
  for (const auto& r : retry_queue) {
    w.line("retry").bytes(r.provenance).bytes(r.raw).bytes(r.spec_text)
        .bytes(r.description);
  }
  std::string out = w.take();
  out += finding_lines_;
  return out;
}

bool StateStore::parse_state(std::string_view text) {
  staged_files_.clear();
  staged_findings_.clear();
  entries.clear();
  arms.clear();
  stream_entries.clear();
  stream_arms.clear();
  retry_queue.clear();
  findings.clear();
  finding_lines_.clear();
  entry_index_.clear();
  stream_entry_index_.clear();
  fingerprints_.clear();
  entry_arms.clear();
  stream_entry_arms.clear();
  coverage = {};
  coverage_weighting = true;
  covered.clear();
  gap_hits.clear();
  core::RecordReader r(text);
  if (!r.header("hdiff-campaign-state-v1") || r.record().size() != 0) {
    error_ = "bad state header in " + state_path();
    return false;
  }
  while (r.next()) {
    const core::Record& line = r.record();
    const std::string_view key = line.key();
    const std::size_t n = line.size();
    bool ok = true;
    if (key == "config_sig") {
      config_sig = line.value();
    } else if (key == "rounds_completed") {
      ok = n == 1 && line.dec(0, &rounds_completed);
    } else if (key == "covsig") {
      coverage.sig = line.value();
    } else if (key == "covweight") {
      ok = n == 1 && line.flag(0, &coverage_weighting);
    } else if (key == "covprod") {
      analysis::CoverageProduction p;
      ok = n == 3 && line.dec(0, &p.depth) && line.flag(1, &p.leftmost);
      p.name = line.field(2);
      coverage.productions.push_back(std::move(p));
    } else if (key == "covsite") {
      // Production ids, owner and attribution cone alike, must name a
      // covprod line above.
      const std::size_t prods = coverage.productions.size();
      const std::string_view kind = line.field(3);
      analysis::GapSite site;
      ok = n >= 6 && line.dec(0, &site.production) &&
           site.production < prods && line.dec(1, &site.alt_a) &&
           line.dec(2, &site.alt_b) && kind.size() == 1 &&
           analysis::parse_byte_class_hex(line.field(4), &site.overlap) &&
           line.dec(5, &site.rank);
      for (std::size_t i = 6; ok && i < n; ++i) {
        std::size_t a = 0;
        ok = line.dec(i, &a) && a < prods;
        site.related.push_back(a);
      }
      if (ok) {
        site.id = coverage.sites.size();
        site.rule = coverage.productions[site.production].name;
        site.kind = kind[0];
        site.width = site.overlap.count();
        site.witness = analysis::witness_bytes(site.overlap);
        coverage.sites.push_back(std::move(site));
      }
    } else if (key == "covboot" || key == "covered") {
      std::set<std::size_t>& ids =
          key == "covboot" ? coverage.bootstrap_covered : covered;
      for (std::size_t i = 0; ok && i < n; ++i) {
        std::size_t id = 0;
        ok = line.dec(i, &id) && ids.insert(id).second;
      }
    } else if (key == "gaphit") {
      std::size_t id = 0;
      ok = n == 2 && line.dec(0, &id) && line.dec(1, &gap_hits[id]);
    } else if (key == "entry") {
      CorpusEntry e;
      ok = n == 2 && line.bytes(1, &e.provenance);
      e.hash = line.field(0);
      std::string spec_text;
      if (ok && (!core::read_file(corpus_path(e.hash), &spec_text) ||
                 !deserialize_spec(spec_text, &e.spec))) {
        error_ = "cannot load corpus entry " + corpus_path(e.hash);
        return false;
      }
      entry_index_.emplace(e.hash, entries.size());
      entries.push_back(std::move(e));
    } else if (key == "sentry") {
      StreamEntry e;
      ok = n == 2 && line.bytes(1, &e.provenance);
      e.hash = line.field(0);
      std::string stream_text;
      if (ok && (!core::read_file(stream_corpus_path(e.hash), &stream_text) ||
                 !stream::deserialize_stream(stream_text, &e.stream))) {
        error_ = "cannot load stream entry " + stream_corpus_path(e.hash);
        return false;
      }
      stream_entry_index_.emplace(e.hash, stream_entries.size());
      stream_entries.push_back(std::move(e));
    } else if (key == "arm" || key == "sarm") {
      std::size_t entry = 0;
      ArmStats stats;
      ok = n == 5 && line.dec(0, &entry) && line.dec(2, &stats.attempts) &&
           line.dec(3, &stats.novel) && line.dec(4, &stats.cursor);
      auto& table = key == "arm" ? arms : stream_arms;
      table[{entry, std::string(line.field(1))}] = stats;
    } else if (key == "retry") {
      RetryEntry e;
      ok = n == 4 && line.bytes(0, &e.provenance) && line.bytes(1, &e.raw) &&
           line.bytes(2, &e.spec_text) && line.bytes(3, &e.description);
      retry_queue.push_back(std::move(e));
    } else if (key == "finding") {
      Finding f;
      ok = n >= 6 && line.dec(0, &f.round) && line.bytes(2, &f.detector) &&
           line.bytes(3, &f.provenance) && line.bytes(4, &f.case_uuid) &&
           line.bytes(5, &f.description);
      f.fingerprint = line.field(1);
      for (std::size_t i = 6; ok && i < n; ++i) {
        ok = line.bytes(i, &f.vector.emplace_back());
      }
      fingerprints_.insert(f.fingerprint);
      // Kept verbatim: every checkpoint this store writes renders findings
      // through finding_state_line, so the text is already canonical.
      finding_lines_ += line.text();
      finding_lines_ += '\n';
      findings.push_back(std::move(f));
    } else {
      ok = false;
    }
    if (!ok) {
      error_ = "bad state line: " + std::string(line.text());
      return false;
    }
  }
  if (!r.ok()) {
    error_ = "malformed line in " + state_path();
    return false;
  }
  return true;
}

bool StateStore::truncate_findings() const {
  // The checkpoint is the source of truth; regenerating the artifact from
  // it drops exactly the lines a crash appended after the last rename (and
  // heals a missing or damaged artifact the same way).  Content is
  // byte-identical to what the committed appends wrote.
  std::string out;
  for (const auto& f : findings) {
    out += finding_jsonl(f);
    out += "\n";
  }
  return write_file_atomic_durable(findings_path(), out);
}

bool StateStore::load() {
  std::string text;
  if (!core::read_file(state_path(), &text)) {
    error_ = "cannot read " + state_path();
    return false;
  }
  if (!parse_state(text)) return false;
  if (!truncate_findings()) {
    error_ = "cannot rewrite " + findings_path();
    return false;
  }
  return true;
}

bool StateStore::load_readonly() {
  std::string text;
  if (!core::read_file(state_path(), &text)) {
    error_ = "cannot read " + state_path();
    return false;
  }
  return parse_state(text);
}

bool StateStore::write_staged() {
  if (!staged_files_.empty()) {
    // 1. Every staged file to <path>.tmp, each fsynced.  The fsyncs are
    // independent, so they are issued from up to io_jobs_ threads and the
    // filesystem can fold them into shared journal commits.
    const std::size_t n = staged_files_.size();
    std::vector<char> written(n, 0);
    std::atomic<std::size_t> next{0};
    const auto work = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        written[i] = write_tmp_durable(staged_files_[i].path + ".tmp",
                                       staged_files_[i].content);
      }
    };
    const std::size_t workers =
        std::min(core::ParallelExecutor::resolve_jobs(io_jobs_), n);
    std::vector<std::thread> pool;
    for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(work);
    work();
    for (std::thread& t : pool) t.join();
    for (std::size_t i = 0; i < n; ++i) {
      if (written[i]) continue;
      error_ = "cannot write " + staged_files_[i].path + ".tmp";
      for (std::size_t j = 0; j < n; ++j) {
        if (written[j]) ::unlink((staged_files_[j].path + ".tmp").c_str());
      }
      return false;
    }
    // 2. Publish them.
    for (const StagedFile& f : staged_files_) {
      const std::string tmp = f.path + ".tmp";
      if (::rename(tmp.c_str(), f.path.c_str()) != 0) {
        error_ = "cannot rename " + tmp + ": " + std::strerror(errno);
        return false;
      }
    }
    // 3. One directory fsync makes every rename above durable.
    if (!fsync_parent_dir(staged_files_.front().path)) {
      error_ = "cannot fsync " + dir_ + "/corpus";
      return false;
    }
    staged_files_.clear();
  }
  // 4. The round's findings lines in one append (not fsynced: the
  // checkpoint is the source of truth and load() regenerates the artifact).
  if (!staged_findings_.empty()) {
    const int fd = ::open(findings_path().c_str(),
                          O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    const bool appended = fd >= 0 && write_all(fd, staged_findings_);
    if (fd >= 0) ::close(fd);
    if (!appended) {
      error_ = "cannot append to " + findings_path();
      return false;
    }
    staged_findings_.clear();
  }
  return true;
}

bool StateStore::commit_round(std::size_t round) {
  // A checkpoint never names a file that is not durable: the staged corpus
  // files land first, the checkpoint rename is the commit point.
  if (!write_staged()) return false;
  const std::size_t previous = rounds_completed;
  rounds_completed = round + 1;
  if (!write_file_atomic_durable(state_path(), render_state())) {
    rounds_completed = previous;
    error_ = "cannot write " + state_path();
    return false;
  }
  return true;
}

}  // namespace hdiff::campaign

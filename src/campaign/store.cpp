#include "campaign/store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>

#include "campaign/fingerprint.h"
#include "report/json.h"

namespace hdiff::campaign {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kStateV1 = "hdiff-campaign-state-v1";
constexpr std::string_view kStateV2 = "hdiff-campaign-state-v2";

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

/// fsync the directory containing `path`, so a just-renamed or just-created
/// entry is itself durable (both update the directory, not the file).
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

/// The first `n` bytes of the file at `path`; false when it cannot be
/// opened or read, or holds fewer bytes.  `n` comes from a file, so it is
/// checked against the file's size before it sizes anything.
bool read_prefix(const std::string& path, std::uint64_t n, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat st {};
  if (::fstat(fd, &st) != 0 || static_cast<std::uint64_t>(st.st_size) < n) {
    ::close(fd);
    return false;
  }
  out->resize(n);
  std::uint64_t off = 0;
  while (off < n) {
    const ssize_t got =
        ::pread(fd, out->data() + off, n - off, static_cast<off_t>(off));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    off += static_cast<std::uint64_t>(got);
  }
  ::close(fd);
  return off == n;
}

/// Cut the file at `path` back to `n` bytes when it is longer; a missing
/// file is already short enough.
bool truncate_to(const std::string& path, std::uint64_t n) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return errno == ENOENT;
  if (static_cast<std::uint64_t>(st.st_size) <= n) return true;
  return ::truncate(path.c_str(), static_cast<off_t>(n)) == 0;
}

/// A hex16 token back to its value; only the canonical form is accepted.
bool parse_hex16(std::string_view token, std::uint64_t* out) {
  std::uint64_t v = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, v, 16);
  if (ec != std::errc{} || ptr != end || core::hex16(v) != token) return false;
  *out = v;
  return true;
}

void render_entry(core::RecordWriter& w, const CorpusEntry& e) {
  w.line("entry").token(e.hash).bytes(e.provenance)
      .bytes(serialize_spec(e.spec));
}

void render_stream_entry(core::RecordWriter& w, const StreamEntry& e) {
  w.line("sentry").token(e.hash).bytes(e.provenance)
      .bytes(stream::serialize_stream(e.stream));
}

void render_finding(core::RecordWriter& w, const Finding& f) {
  w.line("finding").dec(f.round).token(f.fingerprint).bytes(f.detector)
      .bytes(f.provenance).bytes(f.case_uuid).bytes(f.description);
  for (const auto& v : f.vector) w.bytes(v);
}

}  // namespace

bool write_file_atomic_durable(const std::string& path,
                               std::string_view content, std::size_t* fsyncs) {
  const std::string tmp = path + ".tmp";
  if (!write_tmp_durable(tmp, content)) return false;
  if (fsyncs) ++*fsyncs;
  if (::rename(tmp.c_str(), path.c_str()) != 0) return false;
  if (!fsync_parent_dir(path)) return false;
  if (fsyncs) ++*fsyncs;
  return true;
}

const ArmStats& arm_stats(const ArmTable& table, std::size_t entry,
                          const std::string& kind) {
  static const ArmStats kZero;
  const auto it = table.find({entry, kind});
  return it == table.end() ? kZero : it->second;
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
std::string StateStore::log_path() const { return dir_ + "/campaign.log"; }
std::string StateStore::findings_path() const {
  return dir_ + "/findings.jsonl";
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
  fs::create_directories(dir_, ec);
  if (ec) {
    error_ = "cannot create " + dir_ + ": " + ec.message();
    return false;
  }
  config_sig = sig;
  rounds_completed = 0;
  log_bytes_ = 0;
  log_fnv_ = core::kFnv1a64Basis;
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
  core::RecordWriter w;
  render_entry(w, entry);
  staged_log_ += w.take();
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
  core::RecordWriter w;
  render_stream_entry(w, entry);
  staged_log_ += w.take();
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
  core::RecordWriter w;
  render_finding(w, f);
  staged_log_ += w.take();
  findings.push_back(std::move(f));
}

std::string StateStore::render_state() const {
  core::RecordWriter w;
  w.header(kStateV2);
  w.line("config_sig").token(config_sig);
  w.line("rounds_completed").dec(rounds_completed);
  w.line("log").dec(log_bytes_).token(core::hex16(log_fnv_));
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
  for (const auto& [key, table] :
       {std::pair{"arm", &arms}, std::pair{"sarm", &stream_arms}}) {
    for (const auto& [arm, stats] : *table) {
      if (stats.zero()) continue;  // an absent row reads as zero
      w.line(key).dec(arm.first).token(arm.second).dec(stats.attempts)
          .dec(stats.novel).dec(stats.cursor);
    }
  }
  for (const auto& r : retry_queue) {
    w.line("retry").bytes(r.provenance).bytes(r.raw).bytes(r.spec_text)
        .bytes(r.description);
  }
  return w.take();
}

bool StateStore::apply_record(const core::Record& line, bool v1) {
  const std::string_view key = line.key();
  const std::size_t n = line.size();
  // v1 keeps an entry's text in corpus/<hash><ext>, v2 in the record.
  const std::size_t fields = v1 ? 2 : 3;
  const auto text_of = [&](std::string_view ext, std::string* out) {
    return v1 ? core::read_file(dir_ + "/corpus/" +
                                    std::string(line.field(0)) +
                                    std::string(ext),
                                out)
              : line.bytes(2, out);
  };
  // Named by key and first field: a log record carries a whole spec.
  const auto bad = [&](std::string_view what) {
    error_ = std::string(what) + " in " + (v1 ? state_path() : log_path()) +
             ": " + std::string(key) + "=" + std::string(line.field(0));
    return false;
  };
  std::string text;
  if (key == "entry") {
    CorpusEntry e;
    e.hash = line.field(0);
    if (n != fields || !line.bytes(1, &e.provenance) ||
        !text_of(".case", &text) || !deserialize_spec(text, &e.spec)) {
      return bad("bad corpus entry");
    }
    if (content_address(e.spec) != e.hash) {
      return bad("entry does not match its content address");
    }
    if (!entry_index_.emplace(e.hash, entries.size()).second) {
      return bad("repeated entry");
    }
    entries.push_back(std::move(e));
  } else if (key == "sentry") {
    StreamEntry e;
    e.hash = line.field(0);
    if (n != fields || !line.bytes(1, &e.provenance) ||
        !text_of(".stream", &text) ||
        !stream::deserialize_stream(text, &e.stream)) {
      return bad("bad stream entry");
    }
    if (stream_content_address(e.stream) != e.hash) {
      return bad("stream entry does not match its content address");
    }
    if (!stream_entry_index_.emplace(e.hash, stream_entries.size()).second) {
      return bad("repeated stream entry");
    }
    stream_entries.push_back(std::move(e));
  } else if (key == "finding") {
    Finding f;
    bool ok = n >= 6 && line.dec(0, &f.round) && line.bytes(2, &f.detector) &&
              line.bytes(3, &f.provenance) && line.bytes(4, &f.case_uuid) &&
              line.bytes(5, &f.description);
    f.fingerprint = line.field(1);
    for (std::size_t i = 6; ok && i < n; ++i) {
      ok = line.bytes(i, &f.vector.emplace_back());
    }
    if (!ok) return bad("bad finding");
    fingerprints_.insert(f.fingerprint);
    findings.push_back(std::move(f));
  } else {
    return bad("unknown record");
  }
  return true;
}

bool StateStore::parse_state(std::string_view text, bool* v1) {
  staged_log_.clear();
  staged_findings_.clear();
  log_bytes_ = 0;
  log_fnv_ = core::kFnv1a64Basis;
  entries.clear();
  arms.clear();
  stream_entries.clear();
  stream_arms.clear();
  retry_queue.clear();
  findings.clear();
  entry_index_.clear();
  stream_entry_index_.clear();
  fingerprints_.clear();
  entry_arms.clear();
  stream_entry_arms.clear();
  coverage = {};
  coverage_weighting = true;
  covered.clear();
  gap_hits.clear();
  *v1 = text.substr(0, kStateV1.size()) == kStateV1;
  core::RecordReader r(text);
  if (!r.header(*v1 ? kStateV1 : kStateV2) || r.record().size() != 0) {
    error_ = "bad state header in " + state_path();
    return false;
  }
  bool has_log = false;
  while (r.next()) {
    const core::Record& line = r.record();
    const std::string_view key = line.key();
    const std::size_t n = line.size();
    bool ok = true;
    if (key == "config_sig") {
      config_sig = line.value();
    } else if (key == "rounds_completed") {
      ok = n == 1 && line.dec(0, &rounds_completed);
    } else if (key == "log" && !*v1) {
      ok = !has_log && n == 2 && line.dec(0, &log_bytes_) &&
           parse_hex16(line.field(1), &log_fnv_);
      has_log = true;
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
    } else if (*v1 && (key == "entry" || key == "sentry" || key == "finding")) {
      if (!apply_record(line, true)) return false;
    } else if (key == "arm" || key == "sarm") {
      std::size_t entry = 0;
      ArmStats stats;
      ok = n == 5 && line.dec(0, &entry) && line.dec(2, &stats.attempts) &&
           line.dec(3, &stats.novel) && line.dec(4, &stats.cursor);
      auto& table = key == "arm" ? arms : stream_arms;
      if (ok && !stats.zero()) {
        table[{entry, std::string(line.field(1))}] = stats;
      }
    } else if (key == "retry") {
      RetryEntry e;
      ok = n == 4 && line.bytes(0, &e.provenance) && line.bytes(1, &e.raw) &&
           line.bytes(2, &e.spec_text) && line.bytes(3, &e.description);
      retry_queue.push_back(std::move(e));
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
  if (*v1) {
    // Upgrade: the whole history becomes the first commit's log records.
    core::RecordWriter w;
    for (const auto& e : entries) render_entry(w, e);
    for (const auto& e : stream_entries) render_stream_entry(w, e);
    for (const auto& f : findings) render_finding(w, f);
    staged_log_ = w.take();
  } else if (!has_log) {
    error_ = "no log= line in " + state_path();
    return false;
  }
  return true;
}

bool StateStore::read_log() {
  std::string text;
  if (log_bytes_ > 0 && !read_prefix(log_path(), log_bytes_, &text)) {
    error_ = "cannot read the committed " + std::to_string(log_bytes_) +
             "-byte prefix of " + log_path();
    return false;
  }
  if (core::fnv1a64(text) != log_fnv_) {
    error_ = "the committed prefix of " + log_path() +
             " fails its FNV-1a 64 check";
    return false;
  }
  core::RecordReader r(text);
  while (r.next()) {
    if (!apply_record(r.record(), false)) return false;
  }
  if (!r.ok()) {
    error_ = "torn record in the committed prefix of " + log_path();
    return false;
  }
  return true;
}

bool StateStore::read_state(bool heal) {
  std::string text;
  if (!core::read_file(state_path(), &text)) {
    error_ = "cannot read " + state_path();
    return false;
  }
  bool v1 = false;
  if (!parse_state(text, &v1) || (!v1 && !read_log())) return false;
  // Log bytes past the committed prefix are a crashed round's (in a v1
  // dir, which commits none, a crashed upgrade's).
  if (heal && !truncate_to(log_path(), log_bytes_)) {
    error_ = "cannot truncate " + log_path();
    return false;
  }
  return true;
}

bool StateStore::truncate_findings() const {
  // The committed findings are the source of truth; regenerating the
  // artifact from them drops exactly the lines a crash appended after the
  // last rename (and heals a missing or damaged artifact the same way).
  // Content is byte-identical to what the committed appends wrote.
  std::string out;
  for (const auto& f : findings) {
    out += finding_jsonl(f);
    out += "\n";
  }
  return write_file_atomic_durable(findings_path(), out);
}

bool StateStore::load() {
  if (!read_state(/*heal=*/true)) return false;
  if (!truncate_findings()) {
    error_ = "cannot rewrite " + findings_path();
    return false;
  }
  return true;
}

bool StateStore::load_readonly() { return read_state(/*heal=*/false); }

bool StateStore::write_staged() {
  if (!staged_log_.empty()) {
    // 1. The round's records in one write past the written prefix (over
    // any torn tail an earlier failed write left), then one fdatasync.
    const int fd =
        ::open(log_path().c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) {
      error_ = "cannot open " + log_path() + ": " + std::strerror(errno);
      return false;
    }
    const bool written =
        ::lseek(fd, static_cast<off_t>(log_bytes_), SEEK_SET) >= 0 &&
        write_all(fd, staged_log_) && ::fdatasync(fd) == 0;
    ::close(fd);
    if (!written) {
      error_ = "cannot append to " + log_path();
      return false;
    }
    ++last_commit_.fsyncs;
    // 2. The first write past an empty prefix may have created the file:
    // its directory entry must be durable before a checkpoint commits it.
    if (log_bytes_ == 0) {
      if (!fsync_parent_dir(log_path())) {
        error_ = "cannot fsync " + dir_;
        return false;
      }
      ++last_commit_.fsyncs;
    }
    log_fnv_ = core::fnv1a64(staged_log_, log_fnv_);
    log_bytes_ += staged_log_.size();
    last_commit_.log_bytes += staged_log_.size();
    staged_log_.clear();
  }
  // 3. The round's findings lines in one append (not fsynced: the
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
    last_commit_.findings_bytes += staged_findings_.size();
    staged_findings_.clear();
  }
  return true;
}

bool StateStore::commit_round(std::size_t round) {
  // A checkpoint never commits a log byte that is not durable: the round's
  // records land first, the checkpoint rename is the commit point.
  last_commit_ = {};
  if (!write_staged()) return false;
  const std::size_t previous = rounds_completed;
  rounds_completed = round + 1;
  const std::string text = render_state();
  if (!write_file_atomic_durable(state_path(), text, &last_commit_.fsyncs)) {
    rounds_completed = previous;
    error_ = "cannot write " + state_path();
    return false;
  }
  last_commit_.state_bytes = text.size();
  return true;
}

}  // namespace hdiff::campaign

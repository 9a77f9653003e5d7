// Exploit verification (paper §III-D: "we further run these potential
// exploits to complete verification in a real environment").
//
// Difference analysis flags *candidate* gaps; this module runs the two
// attack end-games to confirm exploitability:
//
//   CPDoS  — attacker request goes through the caching front-end, the
//            back-end's error response is stored under the resource's cache
//            key, and a subsequent *legitimate* request for that resource is
//            answered from cache with the error.
//
//   HRS    — the smuggled remainder left by the attacker's request is
//            prepended (by the back-end's connection state) to the victim's
//            request, so the victim receives the response to the attacker's
//            hidden request (response-queue poisoning).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "impls/model.h"

namespace hdiff::net {

/// Shared response cache keyed by the proxy's cache identity (host|target).
/// Mirrors the experiment configuration of §IV-A: "all proxies are
/// configured to cache any returned response".
class ResponseCache {
 public:
  struct Entry {
    int status = 0;
    std::string body;
  };

  void put(std::string key, Entry entry);
  std::optional<Entry> get(std::string_view key) const;
  std::size_t size() const noexcept { return entries_.size(); }
  void clear() { entries_.clear(); }

 private:
  std::map<std::string, Entry, std::less<>> entries_;
};

/// Outcome of a CPDoS end-game.
struct CpdosDemo {
  bool exploitable = false;
  std::string cache_key;        ///< poisoned key
  int poisoned_status = 0;      ///< error status stored in the cache
  int victim_direct_status = 0; ///< what the victim would get uncached
  std::string narrative;
};

/// Run attacker request then victim request through front -> back with a
/// shared cache.  Exploitable when the victim's (cacheable, normally fine)
/// request is answered from cache with the attacker-induced error.
CpdosDemo demonstrate_cpdos(const impls::HttpImplementation& front,
                            const impls::HttpImplementation& back,
                            std::string_view attack_request,
                            std::string_view victim_request);

/// How a stranded connection remainder shifts the back-end's response
/// queue once a victim's request lands behind it.  The single
/// response-queue-poisoning classifier: `demonstrate_smuggling` (the
/// paper's §III-D end-game) and the stream queue-poison detector
/// (core/stream_detect) both call this instead of each reimplementing the
/// prefix-parse logic.
struct QueueShift {
  /// The back-end's next response answers a different target than the
  /// victim asked for — the response queue is poisoned (hijack).
  bool displaced = false;
  /// The stranded remainder desynchronizes the connection instead (the
  /// back-end errors on the combined bytes): denial of service, not hijack.
  bool desync = false;
  std::string victim_target;       ///< what the victim asked for
  std::string answered_for;        ///< what the back-end answered first
  int next_status = 0;             ///< status of the back-end's next parse
};

/// Prepend `stranded` (a back-end's unconsumed connection remainder) to the
/// victim's bytes and classify what the back-end's next response answers.
QueueShift classify_queue_shift(const impls::HttpImplementation& back,
                                std::string_view stranded,
                                std::string_view victim_bytes);

/// Outcome of an HRS response-queue poisoning end-game.
struct SmuggleDemo {
  bool exploitable = false;
  std::string smuggled_target;   ///< target of the hidden request
  std::string victim_target;     ///< what the victim actually asked for
  std::string victim_answered_for;  ///< what the back-end answered first
  std::string narrative;
};

/// Run the attacker's ambiguous request through the front, let the back-end
/// parse the forwarded bytes, then append the victim's forwarded request to
/// the back-end's connection remainder.  Exploitable when the back-end's
/// next response corresponds to the smuggled request instead of the
/// victim's.
SmuggleDemo demonstrate_smuggling(const impls::HttpImplementation& front,
                                  const impls::HttpImplementation& back,
                                  std::string_view attack_request,
                                  std::string_view victim_request);

}  // namespace hdiff::net

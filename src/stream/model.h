// The request stream as a first-class, persistable test unit.
//
// A `RequestStream` is an ordered sequence of buildable messages destined
// for one persistent connection.  The *wire* form (what the chain observes)
// is the plain concatenation of the messages' bytes; the *serialized* form
// (what the campaign corpus stores) keeps the per-message structure so
// stream mutators can splice, reorder, duplicate and drop messages in later
// rounds.
//
// The serialized form is a durable record (core/record.h): the header
// `hdiff-stream-v1 <count>`, `count` lines `msg=<field_enc(serialize_spec)>`,
// and the end marker `end-stream` as the last line.  `deserialize_stream`
// checks the count and the end marker, so *every proper prefix of a valid
// serialization is rejected* — a torn corpus file can never load as a
// shorter-but-valid stream.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "http/serialize.h"

namespace hdiff::stream {

/// An ordered message sequence over one persistent connection.
struct RequestStream {
  std::vector<http::RequestSpec> messages;

  /// The connection byte stream: plain concatenation.
  std::string to_wire() const;
  /// Per-message wire bytes, in order (what observe_stream consumes).
  std::vector<std::string> wires() const;

  friend bool operator==(const RequestStream&, const RequestStream&) = default;
};

/// Canonical text form ("hdiff-stream-v1 <count>" header, one
/// "msg=<hex(serialize_spec)>" line per message, "end-stream" marker,
/// trailing newline).  The stream corpus file format and the
/// content-address preimage.
std::string serialize_stream(const RequestStream& stream);

/// Strict parse of `serialize_stream` output: wrong header, wrong message
/// count, missing end marker, missing trailing newline, or trailing bytes
/// all fail — in particular every proper prefix of a valid serialization.
bool deserialize_stream(std::string_view text, RequestStream* out);

/// True when `text` looks like a serialized stream (used to tell stream
/// retry entries from single-request ones in the shared retry queue).
bool is_stream_text(std::string_view text);

/// Convenience: build a stream from ready-made specs.
RequestStream make_stream(std::vector<http::RequestSpec> messages);

}  // namespace hdiff::stream

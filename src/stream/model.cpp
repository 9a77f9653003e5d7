#include "stream/model.h"

#include <utility>

#include "core/record.h"

namespace hdiff::stream {

namespace {
constexpr std::string_view kName = "hdiff-stream-v1";
constexpr std::string_view kEnd = "end-stream";
}  // namespace

std::string RequestStream::to_wire() const {
  std::string out;
  for (const auto& m : messages) out += m.to_wire();
  return out;
}

std::vector<std::string> RequestStream::wires() const {
  std::vector<std::string> out;
  out.reserve(messages.size());
  for (const auto& m : messages) out.push_back(m.to_wire());
  return out;
}

std::string serialize_stream(const RequestStream& stream) {
  core::RecordWriter w;
  w.header(kName).dec(stream.messages.size());
  for (const auto& m : stream.messages) {
    w.line("msg").bytes(core::serialize_spec(m));
  }
  w.header(kEnd);
  return w.take();
}

bool deserialize_stream(std::string_view text, RequestStream* out) {
  *out = RequestStream{};
  core::RecordReader r(text);
  std::size_t count = 0;
  if (!r.header(kName) || r.record().size() != 1 || !r.record().dec(0, &count)) {
    return false;
  }
  // Exactly `count` msg lines, then the end marker as the last line: fewer
  // lines is a prefix, more is trailing garbage, and both fail.
  std::string spec_text;
  for (std::size_t i = 0; i < count; ++i) {
    http::RequestSpec spec;
    if (!r.next() || r.record().key() != "msg" || r.record().size() != 1 ||
        !r.record().bytes(0, &spec_text) ||
        !core::deserialize_spec(spec_text, &spec)) {
      return false;
    }
    out->messages.push_back(std::move(spec));
  }
  return r.end(kEnd);
}

bool is_stream_text(std::string_view text) {
  return text.substr(0, kName.size()) == kName &&
         text.substr(kName.size(), 1) == " ";
}

RequestStream make_stream(std::vector<http::RequestSpec> messages) {
  RequestStream s;
  s.messages = std::move(messages);
  return s;
}

}  // namespace hdiff::stream

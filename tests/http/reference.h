// Frozen pre-view parser implementations, kept as a differential oracle.
//
// The zero-copy view parser (http/view.h) replaced the owned per-field
// lexers: `lex_request` / `lex_response` / `decode_chunked` are now thin
// materializing wrappers over views.  This header preserves the historical
// implementations *verbatim* (allocating per line, per header, per chunk)
// so the repo can differentially test its own parser the way it
// differentially tests HTTP stacks: the parity suite
// (view_parity_test.cpp) fuzzes raw messages through both and asserts
// field-identical output.
//
// Do not "fix" or modernize these functions — their value is that they do
// not change.  They are compiled into test_http only, never into a library
// or a production binary.
#pragma once

#include <string_view>

#include "http/chunked.h"
#include "http/message.h"
#include "http/response.h"

namespace hdiff::http::reference {

/// The pre-view owned request lexer, byte-for-byte.
RawRequest lex_request(std::string_view raw);

/// The pre-view owned response lexer.
RawResponse lex_response(std::string_view raw);

/// The pre-view response framing decision (allocating split_list walk).
ResponseFraming response_framing(const RawResponse& response,
                                 Method request_method);

/// The pre-view first-response framer.
FramedResponse frame_first_response(std::string_view raw,
                                    Method request_method);

/// The pre-view chunked decoder (allocating line reads, string body).
ChunkResult decode_chunked(std::string_view in, const ChunkPolicy& policy);

}  // namespace hdiff::http::reference

#include "http/lexer.h"

#include "http/view.h"

namespace hdiff::http {

// The owned lexer is a materializing wrapper over the zero-copy view parser
// (view.cpp holds the single tokenizer implementation); the historical
// owned lexer survives verbatim in http::reference (tests/http/reference.h)
// as the parity oracle.
// The thread_local view keeps its vector capacity across calls, so repeat
// lexing only pays for the owned-copy allocations materialize() must make.
RawRequest lex_request(std::string_view raw) {
  thread_local RequestView view;
  parse_request_view(raw, view);
  RawRequest out = view.materialize();
  view.clear();  // do not keep borrowing `raw` past this call
  return out;
}

}  // namespace hdiff::http

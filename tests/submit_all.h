// Submits a batch of requests through a backend's future submits and
// collects the responses in request order, for tests that replay a list.

#ifndef NWC_TESTS_SUBMIT_ALL_H_
#define NWC_TESTS_SUBMIT_ALL_H_

#include <future>
#include <type_traits>
#include <vector>

#include "service/query_backend.h"

namespace nwc {

/// Submits every request (each submit blocks on backpressure) before
/// waiting for any response; response i answers request i.
template <typename Request>
auto SubmitAll(QueryBackend& backend, const std::vector<Request>& requests) {
  const auto submit = [&backend](const Request& request) {
    if constexpr (std::is_same_v<Request, NwcRequest>) {
      return backend.SubmitNwc(request);
    } else {
      return backend.SubmitKnwc(request);
    }
  };
  std::vector<decltype(submit(requests.front()))> futures;
  futures.reserve(requests.size());
  for (const Request& request : requests) futures.push_back(submit(request));
  std::vector<decltype(futures.front().get())> responses;
  responses.reserve(futures.size());
  for (auto& future : futures) responses.push_back(future.get());
  return responses;
}

}  // namespace nwc

#endif  // NWC_TESTS_SUBMIT_ALL_H_

// The one comparator for query responses that tests hold against a
// reference: the status code and the answer must be equal, the answer
// under NwcResult's / KnwcResult's exact operator== (distances and member
// positions compared as doubles, ids and order as given). A mismatch names
// the request and prints both sides' distances and member ids.

#ifndef NWC_TESTS_RESPONSE_COMPARE_H_
#define NWC_TESTS_RESPONSE_COMPARE_H_

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/nwc_types.h"
#include "service/query_backend.h"

namespace nwc {

inline std::string DescribeGroup(double distance, const std::vector<DataObject>& objects) {
  std::string text = StrFormat("distance %.17g ids [", distance);
  for (size_t i = 0; i < objects.size(); ++i) {
    if (i > 0) text += ' ';
    text += std::to_string(objects[i].id);
  }
  return text + "]";
}

inline std::string DescribeAnswer(const NwcResult& result) {
  return result.found ? DescribeGroup(result.distance, result.objects) : "no window";
}

inline std::string DescribeAnswer(const KnwcResult& result) {
  std::string text = std::to_string(result.groups.size()) + " group(s)";
  for (const NwcGroup& group : result.groups) {
    text += "; " + DescribeGroup(group.distance, group.objects);
  }
  return text;
}

template <typename Answer>
void ExpectSameResponse(const QueryResponse<Answer>& got, const QueryResponse<Answer>& want,
                        size_t index) {
  EXPECT_TRUE(got.status.code() == want.status.code() && got.result == want.result)
      << "request " << index << "\n  got:  " << got.status << ", "
      << DescribeAnswer(got.result) << "\n  want: " << want.status << ", "
      << DescribeAnswer(want.result);
}

template <typename Answer>
void ExpectSameResponses(const std::vector<QueryResponse<Answer>>& got,
                         const std::vector<QueryResponse<Answer>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) ExpectSameResponse(got[i], want[i], i);
}

}  // namespace nwc

#endif  // NWC_TESTS_RESPONSE_COMPARE_H_

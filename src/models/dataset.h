// Discretized, labeled training data for the classifiers.
#pragma once

#include <cstddef>
#include <vector>

#include "common/check.h"

namespace prepare {

/// Rows of discretized attribute values with normal/abnormal labels.
/// `alphabet[i]` is the number of bins of attribute i.
struct LabeledDataset {
  std::vector<std::vector<std::size_t>> rows;
  std::vector<bool> abnormal;
  std::vector<std::size_t> alphabet;

  std::size_t size() const { return rows.size(); }
  std::size_t attributes() const { return alphabet.size(); }

  /// Throws CheckFailure on a row whose length or values do not fit
  /// `alphabet` (labels are not checked: unsupervised models ignore them).
  void validate() const {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      PREPARE_CHECK_EQ(rows[r].size(), attributes())
          << "ragged training row " << r;
      for (std::size_t i = 0; i < rows[r].size(); ++i)
        PREPARE_CHECK_LT(rows[r][i], alphabet[i])
            << "row " << r << " attribute " << i << " out of alphabet";
    }
  }
};

}  // namespace prepare

// Visiting a vector in sorted order without sorting it.
#pragma once

#include <algorithm>
#include <vector>

namespace pbio {

/// Call `fn` on each element of `items` in `less` order: directly when the
/// elements already are in that order (the usual case for format fields,
/// which layouts emit by ascending offset), through a sorted copy of
/// pointers otherwise. Equal elements keep no particular order.
template <typename T, typename Less, typename Fn>
void for_each_sorted(const std::vector<T>& items, Less less, Fn&& fn) {
  if (std::is_sorted(items.begin(), items.end(), less)) {
    for (const T& item : items) fn(item);
    return;
  }
  std::vector<const T*> order;
  order.reserve(items.size());
  for (const T& item : items) order.push_back(&item);
  std::sort(order.begin(), order.end(),
            [&](const T* a, const T* b) { return less(*a, *b); });
  for (const T* item : order) fn(*item);
}

}  // namespace pbio

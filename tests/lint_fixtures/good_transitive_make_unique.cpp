// Fixture: the same helper recycling into a caller-owned slot instead of
// allocating a fresh one per call on the hot path.
#include <memory>

void reset_slot(std::unique_ptr<int>& slot) {
    *slot = 3;
}

// pqs-hot: called once per delivered packet.
void deliver_one(std::unique_ptr<int>& slot) {
    reset_slot(slot);
}

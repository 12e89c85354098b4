// Fixture header for tests/anchor_test.py.
struct Gear {
  int teeth;
};
void Stop();

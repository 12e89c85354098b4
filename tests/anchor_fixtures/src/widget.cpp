// Fixture source for tests/anchor_test.py: the guide next to it anchors
// these lines. Keep the line numbers stable.
void Widget::Spin() {
  Turn();
}

void Widget::Stop() {}

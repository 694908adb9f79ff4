package stream

import "testing"

// Subscribe/cancel cycles must not grow the subscriber list, and dropping
// cancelled slots must keep the survivors' order.
func TestSubscribeDropsCancelledSlots(t *testing.T) {
	var s Stream[int]
	var order []string
	s.Subscribe(func(int) { order = append(order, "first") })
	for i := 0; i < 100; i++ {
		s.Subscribe(func(int) { t.Error("cancelled subscriber ran") })()
	}
	s.Subscribe(func(int) { order = append(order, "last") })
	if n := len(*s.subs.Load()); n != 2 {
		t.Fatalf("list holds %d slots after 100 subscribe/cancel cycles, want 2", n)
	}
	s.Publish(0)
	if len(order) != 2 || order[0] != "first" || order[1] != "last" {
		t.Fatalf("publish order %v", order)
	}
}

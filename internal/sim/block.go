package sim

import "authradio/internal/radio"

// Device blocks. The resolver reaches devices only through a
// BlockHandler: the engine caches each device's (handler, handle) pair
// at Add, and both phases call WakeBlock/DeliverBlock once per
// contiguous run of same-handler devices. A BlockDevice brings its own
// handler, so a fleet whose state lives in flat arrays (one struct of
// dense slices for thousands of devices) pays no interface call per
// device; every other Device shares the engine's plainHandler, which
// calls Wake/Deliver one device at a time. A transport's Caller is
// wrapped the same way (callerHandler) and then drives every device,
// block devices included, through their per-device methods.

// BlockHandler wakes and delivers to a batch of devices that share one
// backing block.
//
// WakeBlock must fill steps[k] with the step of the device whose handle
// is handles[k], for every k — entries are scratch and may hold stale
// values from earlier rounds. DeliverBlock hands obs[k] to the device
// with handle handles[k]. The engine may call both concurrently for
// disjoint handle sets (like Device.Wake on distinct devices), so
// implementations must only write per-handle state and steps; handles
// and obs are read-only.
type BlockHandler interface {
	WakeBlock(r uint64, handles []uint32, steps []Step)
	DeliverBlock(r uint64, handles []uint32, obs []radio.Obs)
}

// BlockDevice is a Device that brings its own BlockHandler. Block
// returns the shared handler and this device's handle within it; both
// are cached by the engine at Add. Wake/Deliver must remain implemented
// and equivalent (transports and equivalence tests still use them).
type BlockDevice interface {
	Device
	Block() (BlockHandler, uint32)
}

// plainHandler drives plain Devices one call each. Its handle is the
// compact index.
type plainHandler struct{ e *Engine }

func (h plainHandler) WakeBlock(r uint64, handles []uint32, steps []Step) {
	for k, ix := range handles {
		steps[k] = h.e.devices[ix].Wake(r)
	}
}

func (h plainHandler) DeliverBlock(r uint64, handles []uint32, obs []radio.Obs) {
	for k, ix := range handles {
		h.e.devices[ix].Deliver(r, obs[k])
	}
}

// callerHandler routes every device through a transport's Caller. Its
// handle is the compact index.
type callerHandler struct{ c Caller }

func (h callerHandler) WakeBlock(r uint64, handles []uint32, steps []Step) {
	for k, ix := range handles {
		steps[k] = h.c.Wake(int32(ix), r)
	}
}

func (h callerHandler) DeliverBlock(r uint64, handles []uint32, obs []radio.Obs) {
	for k, ix := range handles {
		h.c.Deliver(int32(ix), r, obs[k])
	}
}

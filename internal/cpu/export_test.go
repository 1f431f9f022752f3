package cpu

// SetReplay turns c's stalled-tick replay and its offload refusal
// shortcut on or off. Off, every tick runs every stage and every
// offload attempt calls Submit: the reference the replay tests compare
// against.
func SetReplay(c *Core, on bool) { c.replayOff = !on }

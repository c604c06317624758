package scenario

// ResetTrafficCache empties the in-memory traffic tier, so an external
// test can force a later round through the on-disk store as a separate
// process would.
var ResetTrafficCache = resetTrafficCache

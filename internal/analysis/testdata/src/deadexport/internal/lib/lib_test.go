package lib

func useTestOnly() { TestOnly() }

// Helper is declared in a test file, so it is out of scope.
func Helper() {}

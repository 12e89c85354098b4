// Fixture: a file name that exists twice in the tree.
